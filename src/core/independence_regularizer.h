#ifndef SBRL_CORE_INDEPENDENCE_REGULARIZER_H_
#define SBRL_CORE_INDEPENDENCE_REGULARIZER_H_

#include <cstdint>

#include "autodiff/ops.h"
#include "core/config.h"
#include "stats/rff.h"
#include "tensor/random.h"

namespace sbrl {

/// Differentiable decorrelation loss L_D(Z, w) of the Independence
/// Regularizer (paper Eqs. 9-10): the sum over feature pairs (a, b) of
/// the weighted HSIC-RFF statistic
///   || Cov_w( u(Z_:,a), v(Z_:,b) ) ||_F^2,
/// where u, v are kRffFeatures random cosine features (fresh draws
/// from `rng` on every call — the stochastic decorrelation estimator of
/// StableNet) and Cov_w uses the normalized sample weights.
///
/// `z` is a detached activation matrix (the weight step of Algorithm 1
/// holds the network fixed), while `w` (n x 1) is the differentiable
/// sample-weight node on the tape.
///
/// `pair_budget > 0` measures only that many uniformly sampled pairs
/// and rescales to the full-pair total, keeping the per-step cost
/// bounded for wide layers; 0 measures every pair.
///
/// The RFF blocks of the used columns are stacked into one n x (d*k)
/// matrix F and every selected pair is measured by ONE tape node: its
/// forward (HsicRffTierForward) fills F and accumulates every pair's
/// cross-covariance and the weighted means in one pass over F's row
/// blocks, its backward (HsicRffTierBackward) walks F once more. The
/// unfused chain (block cross-cov, means product and pair-Frobenius
/// nodes over a constant F) is the bitwise oracle, and the per-pair
/// formulation E_w[u^T v] - E_w[u]^T E_w[v] over sliced feature blocks
/// the 1e-9 relative one (tests/hsic_batched_test.cc: same pair subset
/// and RFF draws; see README "Weight-loss batching").
///
/// Projections are per-column slot draws of one epoch (see
/// RffSlotDraws): slot index = column index. When `draws` is null the
/// call builds its own set, its epoch seed drawn from `rng` (one engine
/// draw after pair selection) — the standalone path. When set, the
/// caller's set is used and filled, and `rng` is only consumed for the
/// pair subset — the path BuildWeightLoss uses to share one set across
/// all HAP tiers of a weight step.
Var HsicRffDecorrelationLoss(const Matrix& z, Var w, int64_t pair_budget,
                             Rng& rng, RffSlotDraws* draws = nullptr);

}  // namespace sbrl

#endif  // SBRL_CORE_INDEPENDENCE_REGULARIZER_H_
