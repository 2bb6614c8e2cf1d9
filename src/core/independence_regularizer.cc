#include "core/independence_regularizer.h"

#include <memory>
#include <utility>
#include <vector>

#include "stats/feature_pairs.h"
#include "stats/hsic.h"
#include "stats/rff.h"

namespace sbrl {

Var HsicRffDecorrelationLoss(const Matrix& z, Var w, int64_t pair_budget,
                             Rng& rng, RffSlotDraws* draws) {
  Tape* tape = w.tape();
  SBRL_CHECK(w.valid());
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_EQ(w.rows(), z.rows());
  const int64_t d = z.cols();
  const int64_t k = kRffFeatures;
  if (d < 2) return tape->Constant(Matrix::Zeros(1, 1));

  // Normalized weights are shared by every pair term.
  Var w_norm = ops::DivScalar(w, ops::SumAll(w));

  // Pair subset first — a small budget on a wide layer skips most of
  // the cosine work. `rng` is consumed in exactly this order (pairs,
  // then the epoch-seed draw of the standalone path).
  FeaturePairSelection sel = SelectFeaturePairs(d, pair_budget, rng);
  CompactPairBlocks blocks = CompactUsedColumns(d, sel.pairs);

  // Projections are per-column slot draws of the epoch: slot index =
  // original column index, so every evaluation sharing the draw set
  // (the HAP tiers of one weight step) reuses the draws of the columns
  // it has in common with the others.
  RffSlotDraws own_draws;
  if (draws == nullptr) {
    own_draws.epoch_seed = rng.engine()();
    draws = &own_draws;
  }
  // One tape node for the whole tier: F = [u_c0 | u_c1 | ...] over the
  // used columns (n x n_used*k), the block-diagonal cross products
  // E_w[U^T V] of every selected pair and the means E_w[F] come out of
  // one pass over F, and the node's backward walks F once more. F
  // lives as long as the node, as the constant it replaces did.
  const int64_t n = z.rows();
  const int64_t fcols = static_cast<int64_t>(blocks.used_cols.size()) * k;
  auto tier = std::make_shared<HsicRffTier>();
  tier->pairs = std::move(blocks.block_pairs);
  tier->features = Matrix(n, fcols);
  tier->cross = tape->NewZero(static_cast<int64_t>(tier->pairs.size()) * k, k);
  tier->means = tape->NewZero(1, fcols);
  Matrix value = tape->NewZero(1, 1);
  value(0, 0) = HsicRffTierForward(z, blocks.used_cols, w_norm.value(), draws,
                                   tier.get());
  const int wi = w_norm.id(), self = tape->size();
  Var loss = tape->MakeNode(std::move(value), {w_norm},
                            [tier, wi, self, n](Tape* t) {
    Matrix dw = t->NewZero(n, 1);
    HsicRffTierBackward(*tier, t->grad(self).scalar(), &dw);
    t->AccumulateGrad(wi, std::move(dw));
    t->Recycle(std::move(tier->cross));
    t->Recycle(std::move(tier->means));
  });
  // Rescale a sampled subset to estimate the full pairwise sum.
  return ops::Scale(loss, sel.Rescale());
}

}  // namespace sbrl
