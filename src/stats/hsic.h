#ifndef SBRL_STATS_HSIC_H_
#define SBRL_STATS_HSIC_H_

#include <cstdint>
#include <utility>
#include <vector>

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

/// One batched HSIC-RFF tier: the weighted HSIC-RFF statistic of
/// every selected column pair of one layer, summed. Column block i of
/// `features` F holds the k RFF features of the i-th used column, and
/// pair p measures blocks pairs[p] = (a, b) through
///   || cross_p - means_a^T means_b ||_F^2,
/// cross_p = E_w[F_a^T F_b] (block p of `cross`), means = E_w[F]. The
/// forward fills all three; the backward reads them.
struct HsicRffTier {
  /// k: RFF features per used column.
  int64_t num_features = 0;
  /// Block-index pairs (a, b) into the used columns.
  std::vector<std::pair<int64_t, int64_t>> pairs;
  /// F, (n x used*k); any initial content.
  Matrix features;
  /// Pair cross blocks (pairs*k x k); must start zeroed.
  Matrix cross;
  /// Weighted feature means (1 x used*k); must start zeroed.
  Matrix means;
};

/// Forward of one tier under normalized weights `wn` (n x 1): the
/// used columns `cols` of `x` through MakeRffStack(cols, k, draws),
/// returning the unscaled pair sum. One pass
/// over F in row blocks sized for L1: each block's angles are written
/// row by row, its cosine runs (StackRffRows), and the cross and means
/// accumulators continue over it — block_cross_fwd and
/// matmul_trans_a_rows of the active level, which both resume from the
/// stored partial sums. Every accumulator takes its
/// rows in ascending order, so the result is bitwise the unblocked
/// chain (stack, weighted block cross, means product, pair Frobenius
/// sum). Runs on the calling thread.
double HsicRffTierForward(const Matrix& x, const std::vector<int64_t>& cols,
                          const Matrix& wn, RffSlotDraws* draws,
                          HsicRffTier* tier);

/// Backward of a forward-filled tier: `*dwn` (n x 1, zeroed) receives
/// the gradient of g * loss with respect to the normalized weights.
/// The pair residuals give d cross and d means exactly as the
/// Frobenius node of the unfused chain did; then one walk over the rows
/// of F adds, per row, the means term (the level's matmul_trans_b_rows
/// dot with d means) and the cross term (its block_cross_grad_dw sum),
/// each accumulated into a zeroed buffer — the bits of the unfused
/// chain, whose two gradient contributions met in
/// the same order. Rows are independent, so the walk fans out over the
/// pool with any chunking.
void HsicRffTierBackward(const HsicRffTier& tier, double g, Matrix* dwn);

/// Sum of WeightedHsicRff over all unordered column pairs (a < b) of
/// `x` (n x d) — the paper's decorrelation loss L_D (Eq. 10) as a
/// diagnostic statistic. If `max_pairs > 0`, a uniformly random subset
/// of that many pairs is measured and the sum is rescaled to the full
/// pair count. Evaluated as one HsicRffTierForward — the
/// non-differentiable mirror of HsicRffDecorrelationLoss, with the same
/// rng discipline: the pair subset comes out of `rng`, then one epoch
/// seed, and per-column projections are slot draws keyed by (epoch, k,
/// column index).
double PairwiseWeightedHsicRff(const Matrix& x, const Matrix& w,
                               int64_t num_features, Rng& rng,
                               int64_t max_pairs = 0);

}  // namespace sbrl

#endif  // SBRL_STATS_HSIC_H_
