#include "stats/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/linalg.h"

namespace sbrl {

Matrix RbfKernel(const Matrix& a, const Matrix& b, double bandwidth) {
  SBRL_CHECK_GT(bandwidth, 0.0);
  Matrix d2 = PairwiseSquaredDistances(a, b);
  const double scale = -0.5 / (bandwidth * bandwidth);
  return Map(d2, [scale](double v) { return std::exp(scale * v); });
}

double MedianHeuristicBandwidth(const Matrix& x) {
  SBRL_CHECK_GT(x.rows(), 1);
  Matrix d2 = PairwiseSquaredDistances(x, x);
  std::vector<double> dists;
  dists.reserve(static_cast<size_t>(x.rows() * (x.rows() - 1) / 2));
  for (int64_t i = 0; i < x.rows(); ++i) {
    for (int64_t j = i + 1; j < x.rows(); ++j) {
      dists.push_back(std::sqrt(d2(i, j)));
    }
  }
  const size_t mid = dists.size() / 2;
  std::nth_element(dists.begin(), dists.begin() + static_cast<long>(mid),
                   dists.end());
  const double median = dists[mid];
  return median > 1e-12 ? median : 1.0;
}

}  // namespace sbrl
