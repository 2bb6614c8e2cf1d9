// The paper's decorrelation loss L_D (Eq. 10) as a plain statistic,
// kept as a test measuring tool: integration tests read how much
// dependence a learned representation keeps, and the fused-tier tests
// hold the tier forward against it.

#ifndef SBRL_TESTS_REFERENCE_HSIC_H_
#define SBRL_TESTS_REFERENCE_HSIC_H_

#include <cstdint>
#include <utility>

#include "common/check.h"
#include "stats/feature_pairs.h"
#include "stats/hsic.h"
#include "stats/rff.h"
#include "stats/weighted.h"
#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {
namespace reference {

/// Sum of the weighted HSIC-RFF statistic (paper Eqs. 7 and 9: the
/// squared Frobenius norm of the weighted cross-covariance between the
/// RFF features of two columns) over all unordered column pairs
/// (a < b) of `x` (n x d). If `max_pairs > 0`, a uniformly random
/// subset of that many pairs is measured and the sum is rescaled to the
/// full pair count. Evaluated as one HsicRffTierForward, with the rng
/// discipline of HsicRffDecorrelationLoss: the pair subset comes out of
/// `rng`, then one epoch seed, and per-column projections are slot
/// draws keyed by (epoch, kRffFeatures, column index).
inline double PairwiseWeightedHsicRff(const Matrix& x, const Matrix& w,
                                      Rng& rng, int64_t max_pairs = 0) {
  const int64_t d = x.cols();
  const int64_t k = kRffFeatures;
  SBRL_CHECK_GT(d, 1);
  SBRL_CHECK_EQ(x.rows(), w.rows());
  FeaturePairSelection sel = SelectFeaturePairs(d, max_pairs, rng);
  CompactPairBlocks blocks = CompactUsedColumns(d, sel.pairs);
  RffSlotDraws draws{rng.engine()(), {}};
  const int64_t fcols = static_cast<int64_t>(blocks.used_cols.size()) * k;
  HsicRffTier tier;
  tier.pairs = std::move(blocks.block_pairs);
  tier.features = Matrix(x.rows(), fcols);
  tier.cross = Matrix(static_cast<int64_t>(tier.pairs.size()) * k, k);
  tier.means = Matrix(1, fcols);
  const double acc = HsicRffTierForward(x, blocks.used_cols,
                                        NormalizeWeights(w), &draws, &tier);
  // Rescale a sampled subset to estimate the full-pair sum.
  return acc * sel.Rescale();
}

}  // namespace reference
}  // namespace sbrl

#endif  // SBRL_TESTS_REFERENCE_HSIC_H_
