#ifndef SBRL_STATS_WEIGHTED_H_
#define SBRL_STATS_WEIGHTED_H_

#include "tensor/matrix.h"

namespace sbrl {

/// Normalizes a non-negative (n x 1) weight vector to sum to 1.
/// CHECK-fails if the sum is not strictly positive.
Matrix NormalizeWeights(const Matrix& w);

/// Weighted cross-covariance matrix between the columns of U (n x ku)
/// and V (n x kv): C_ij = Cov_w(U_:,i, V_:,j) -> (ku x kv).
Matrix WeightedCrossCovariance(const Matrix& u, const Matrix& v,
                               const Matrix& w);

}  // namespace sbrl

#endif  // SBRL_STATS_WEIGHTED_H_
