#ifndef SBRL_STATS_HSIC_H_
#define SBRL_STATS_HSIC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "stats/rff.h"
#include "tensor/matrix.h"

namespace sbrl {

/// One batched HSIC-RFF tier: the weighted HSIC-RFF statistic of
/// every selected column pair of one layer, summed. The paper's
/// decorrelation loss L_D (Eq. 10) is these tiers on the tape, one node
/// each, recorded by HsicRffDecorrelationLoss
/// (core/independence_regularizer.h). Column block i of
/// `features` F holds the k = kRffFeatures RFF features of the i-th
/// used column, and pair p measures blocks pairs[p] = (a, b) through
///   || cross_p - means_a^T means_b ||_F^2,
/// cross_p = E_w[F_a^T F_b] (block p of `cross`), means = E_w[F]. The
/// forward fills all three; the backward reads them.
struct HsicRffTier {
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
/// used columns `cols` of `x` through MakeRffStack(cols, draws),
/// returning the unscaled pair sum. One pass over F in row
/// blocks sized for L1: each block's angles are written
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

}  // namespace sbrl

#endif  // SBRL_STATS_HSIC_H_
