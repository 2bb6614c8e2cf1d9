#include "stats/ipm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/weighted.h"
#include "tensor/linalg.h"

namespace sbrl {

double LinearMmd2(const Matrix& a, const Matrix& b) {
  Matrix wa = Matrix::Ones(a.rows(), 1);
  Matrix wb = Matrix::Ones(b.rows(), 1);
  return WeightedLinearMmd2(a, wa, b, wb);
}

double WeightedLinearMmd2(const Matrix& a, const Matrix& wa, const Matrix& b,
                          const Matrix& wb) {
  SBRL_CHECK_EQ(a.cols(), b.cols());
  Matrix mean_a = WeightedColMeans(a, wa);
  Matrix mean_b = WeightedColMeans(b, wb);
  double acc = 0.0;
  for (int64_t c = 0; c < a.cols(); ++c) {
    const double d = mean_a(0, c) - mean_b(0, c);
    acc += d * d;
  }
  return acc;
}

namespace {

/// W1 between the 1-D samples `pa`, `pb` via quantile coupling on a
/// common grid of max(n, m) quantiles.
double Projected1dW1(const Matrix& pa, const Matrix& pb) {
  std::vector<double> va = pa.ToVector();
  std::vector<double> vb = pb.ToVector();
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  const int64_t grid = std::max<int64_t>(va.size(), vb.size());
  double w1 = 0.0;
  for (int64_t g = 0; g < grid; ++g) {
    const double q =
        (static_cast<double>(g) + 0.5) / static_cast<double>(grid);
    const auto qa = va[static_cast<size_t>(q * static_cast<double>(va.size()))];
    const auto qb = vb[static_cast<size_t>(q * static_cast<double>(vb.size()))];
    w1 += std::abs(qa - qb);
  }
  return w1 / static_cast<double>(grid);
}

}  // namespace

double SlicedWasserstein1(const Matrix& a, const Matrix& b,
                          int64_t num_projections, Rng& rng) {
  SBRL_CHECK_EQ(a.cols(), b.cols());
  SBRL_CHECK_GT(num_projections, 0);
  SBRL_CHECK_GT(a.rows(), 0);
  SBRL_CHECK_GT(b.rows(), 0);
  const int64_t d = a.cols();
  double acc = 0.0;
  for (int64_t p = 0; p < num_projections; ++p) {
    Matrix dir = rng.Randn(d, 1);
    const double norm = dir.Norm();
    if (norm < 1e-12) continue;
    dir *= 1.0 / norm;
    acc += Projected1dW1(Matmul(a, dir), Matmul(b, dir));
  }
  return acc / static_cast<double>(num_projections);
}

double MaxSlicedWasserstein1(const Matrix& a, const Matrix& b,
                             int64_t num_projections, Rng& rng) {
  SBRL_CHECK_EQ(a.cols(), b.cols());
  SBRL_CHECK_GT(a.rows(), 0);
  SBRL_CHECK_GT(b.rows(), 0);
  const int64_t d = a.cols();
  double worst = 0.0;
  // Coordinate axes catch single-feature shifts exactly.
  for (int64_t c = 0; c < d; ++c) {
    worst = std::max(worst, Projected1dW1(a.Col(c), b.Col(c)));
  }
  for (int64_t p = 0; p < num_projections; ++p) {
    Matrix dir = rng.Randn(d, 1);
    const double norm = dir.Norm();
    if (norm < 1e-12) continue;
    dir *= 1.0 / norm;
    worst = std::max(worst, Projected1dW1(Matmul(a, dir), Matmul(b, dir)));
  }
  return worst;
}

}  // namespace sbrl
