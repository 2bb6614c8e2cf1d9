#ifndef SBRL_STATS_HSIC_H_
#define SBRL_STATS_HSIC_H_

#include <cstdint>

#include "stats/rff.h"
#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Biased V-statistic estimator of the Hilbert-Schmidt Independence
/// Criterion between two (n x 1) samples under RBF kernels:
/// HSIC = tr(K_a H K_b H) / n^2 with centering H = I - 11^T / n.
/// Zero iff (asymptotically) the samples are independent.
double Hsic(const Matrix& a, const Matrix& b, double bandwidth_a,
            double bandwidth_b);

/// Same with median-heuristic bandwidths.
double Hsic(const Matrix& a, const Matrix& b);

/// HSIC with Random Fourier Features (paper Eq. 7): the squared
/// Frobenius norm of the cross-covariance between `num_features` random
/// cosine features of each variable. `a` and `b` are (n x 1) columns.
/// Fresh feature draws come from `rng`.
double HsicRff(const Matrix& a, const Matrix& b, int64_t num_features,
               Rng& rng);

/// Weighted HSIC-RFF (paper Eq. 9): covariances are computed under the
/// normalized sample weights `w` (n x 1, non-negative). Consumes two
/// SampleRff draws from `rng` (one per variable), then evaluates the
/// cosine features through the shared sweep (ScaledCosInPlace).
double WeightedHsicRff(const Matrix& a, const Matrix& b, const Matrix& w,
                       int64_t num_features, Rng& rng);

/// Sum of WeightedHsicRff over all unordered column pairs (a < b) of
/// `x` (n x d) — the paper's decorrelation loss L_D (Eq. 10) as a
/// diagnostic statistic. If `max_pairs > 0`, a uniformly random subset
/// of that many pairs is measured and the sum is rescaled to the full
/// pair count. Evaluated through the batched block-diagonal kernel
/// (one stacked feature matrix, one cross-product dispatch for every
/// pair) — the non-differentiable mirror of HsicRffDecorrelationLoss,
/// with the same rng discipline: the pair subset comes out of `rng`,
/// then one epoch seed, and per-column projections are slot draws
/// keyed by (epoch, k, column index).
double PairwiseWeightedHsicRff(const Matrix& x, const Matrix& w,
                               int64_t num_features, Rng& rng,
                               int64_t max_pairs = 0);

}  // namespace sbrl

#endif  // SBRL_STATS_HSIC_H_
