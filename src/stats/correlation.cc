#include "stats/correlation.h"

#include <vector>

#include "stats/rff.h"
#include "stats/weighted.h"

namespace sbrl {

Matrix PairwiseHsicRffMatrix(const Matrix& x, const Matrix& w, Rng& rng,
                             int64_t max_dims) {
  int64_t d = x.cols();
  std::vector<int64_t> dims;
  if (max_dims > 0 && max_dims < d) {
    dims = rng.SampleWithoutReplacement(d, max_dims);
    d = max_dims;
  } else {
    dims.resize(static_cast<size_t>(d));
    for (int64_t i = 0; i < d; ++i) dims[static_cast<size_t>(i)] = i;
  }
  // Per-pair fresh RFF draws (a's projection, then b's); the columns
  // are read in place through strided ApplyRffToColumn views — no
  // Matrix::Col copies.
  Matrix out(d, d);
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = i + 1; j < d; ++j) {
      RffProjection proj_a = SampleRff(rng, 1, kRffFeatures);
      RffProjection proj_b = SampleRff(rng, 1, kRffFeatures);
      Matrix u = ApplyRffToColumn(proj_a, x, dims[static_cast<size_t>(i)]);
      Matrix v = ApplyRffToColumn(proj_b, x, dims[static_cast<size_t>(j)]);
      Matrix cov = WeightedCrossCovariance(u, v, w);
      double frob2 = 0.0;
      for (int64_t e = 0; e < cov.size(); ++e) frob2 += cov[e] * cov[e];
      out(i, j) = frob2;
      out(j, i) = frob2;
    }
  }
  return out;
}

double MeanOffDiagonal(const Matrix& m) {
  SBRL_CHECK_EQ(m.rows(), m.cols());
  const int64_t d = m.rows();
  SBRL_CHECK_GT(d, 1);
  double acc = 0.0;
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      if (i != j) acc += m(i, j);
    }
  }
  return acc / static_cast<double>(d * (d - 1));
}

}  // namespace sbrl
