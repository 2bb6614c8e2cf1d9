#ifndef SBRL_STATS_WEIGHTED_H_
#define SBRL_STATS_WEIGHTED_H_

#include "tensor/matrix.h"

namespace sbrl {

/// Normalizes a non-negative (n x 1) weight vector to sum to 1.
/// CHECK-fails if the sum is not strictly positive.
Matrix NormalizeWeights(const Matrix& w);

/// Weighted mean of an (n x 1) column under (n x 1) weights (weights are
/// normalized internally).
double WeightedMean(const Matrix& col, const Matrix& w);

/// Weighted column means of X (n x d) -> (1 x d).
Matrix WeightedColMeans(const Matrix& x, const Matrix& w);

/// Weighted covariance Cov_w(a, b) = E_w[ab] - E_w[a] E_w[b] for two
/// (n x 1) columns.
double WeightedCovariance(const Matrix& a, const Matrix& b, const Matrix& w);

/// Weighted cross-covariance matrix between the columns of U (n x ku)
/// and V (n x kv): C_ij = Cov_w(U_:,i, V_:,j) -> (ku x kv).
Matrix WeightedCrossCovariance(const Matrix& u, const Matrix& v,
                               const Matrix& w);

}  // namespace sbrl

#endif  // SBRL_STATS_WEIGHTED_H_
