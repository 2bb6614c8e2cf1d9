#ifndef SBRL_STATS_CORRELATION_H_
#define SBRL_STATS_CORRELATION_H_

#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Symmetric matrix of weighted HSIC-RFF statistics between all column
/// pairs of x (diagonal = 0). This regenerates the paper's Fig. 5
/// nonlinear-correlation heat map; `max_dims > 0` restricts to a random
/// subset of columns (the paper samples 25 representation dimensions).
/// Each pair draws two fresh kRffFeatures-feature projections from
/// `rng` (stats/rff.h), one per column, and its entry is the squared
/// Frobenius norm of the weighted cross-covariance of their features
/// (paper Eqs. 7 and 9). The cosine features evaluate through the shared
/// sweep, so the statistic and the stacked loss path use the same
/// epilogue.
Matrix PairwiseHsicRffMatrix(const Matrix& x, const Matrix& w, Rng& rng,
                             int64_t max_dims = 0);

/// Mean of the off-diagonal entries of a square symmetric matrix — the
/// summary number the paper quotes for Fig. 5 (0.85 / 0.64 / 0.58).
double MeanOffDiagonal(const Matrix& m);

}  // namespace sbrl

#endif  // SBRL_STATS_CORRELATION_H_
