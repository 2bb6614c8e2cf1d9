#include "core/independence_regularizer.h"

#include <utility>
#include <vector>

#include "stats/feature_pairs.h"
#include "stats/rff.h"

namespace sbrl {

Var HsicRffDecorrelationLoss(const Matrix& z, Var w, int64_t rff_features,
                             int64_t pair_budget, Rng& rng,
                             RffSlotDraws* draws) {
  Tape* tape = w.tape();
  SBRL_CHECK(w.valid());
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_EQ(w.rows(), z.rows());
  SBRL_CHECK_GT(rff_features, 0);
  const int64_t d = z.cols();
  const int64_t k = rff_features;
  if (d < 2) return tape->Constant(Matrix::Zeros(1, 1));

  // Normalized weights are shared by every pair term.
  Var w_norm = ops::DivScalar(w, ops::SumAll(w));

  // Pair subset first — a small budget on a wide layer skips most of
  // the cosine work. `rng` is consumed in exactly this order (pairs,
  // then the epoch-seed draw of the standalone path).
  FeaturePairSelection sel = SelectFeaturePairs(d, pair_budget, rng);
  CompactPairBlocks blocks = CompactUsedColumns(d, sel.pairs);
  const std::vector<std::pair<int64_t, int64_t>>& block_pairs =
      blocks.block_pairs;

  // Projections are per-column slot draws of the epoch: slot index =
  // original column index, so every evaluation sharing the draw set
  // (the HAP tiers of one weight step) reuses the draws of the columns
  // it has in common with the others.
  RffSlotDraws own_draws;
  if (draws == nullptr) {
    own_draws.epoch_seed = rng.engine()();
    draws = &own_draws;
  }
  // F = [u_c0 | u_c1 | ...] over the used columns (n x n_used*k):
  // angles land in one flat buffer, then a single cosine sweep
  // finishes every feature at once.
  Matrix stacked(z.rows(),
                 static_cast<int64_t>(blocks.used_cols.size()) * k);
  StackRffColumns(z, blocks.used_cols, k, draws, &stacked);

  Var f_const = tape->Constant(std::move(stacked));

  // Block-diagonal batching: E_w[U^T V], E_w[U] and E_w[V] for all
  // selected pairs land in two kernel dispatches — one fused weighted
  // block cross-product over every pair and one means product —
  // instead of O(pairs) sub-64K-flop tape ops.
  Var cross = ops::BlockWeightedCrossCov(f_const, w_norm, k, block_pairs);
  Var means = ops::MatmulTransA(w_norm, f_const);  // 1 x n_used*k
  Var loss = ops::PairHsicFrobenius(cross, means, k, block_pairs);
  // Rescale a sampled subset to estimate the full pairwise sum.
  return ops::Scale(loss, sel.Rescale());
}

}  // namespace sbrl
