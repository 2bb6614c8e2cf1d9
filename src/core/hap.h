#ifndef SBRL_CORE_HAP_H_
#define SBRL_CORE_HAP_H_

#include <vector>

#include "core/config.h"
#include "tensor/random.h"

namespace sbrl {

/// Detached network activations captured from the latest network-step
/// forward pass, grouped by HAP priority.
struct WeightLossInputs {
  Matrix z_p;               ///< first priority: last hidden layer
  Matrix z_r;               ///< second priority: balanced representation
  std::vector<Matrix> z_o;  ///< third priority: all other hidden layers
  std::vector<int> t;       ///< treatment assignment (for L_B)
};

/// Records the sample-weight objective L_w (paper Eq. 11) on the tape
/// of the differentiable weight node `w`:
///   L_w = alpha_br * L_B                      (Balancing Regularizer)
///       + gamma1 * L_D(Z_p, w)                (Independence Regularizer)
///       + gamma2 * L_D(Z_r, w)                (HAP, second priority)
///       + gamma3 * sum_i L_D(Z_o_i, w)        (HAP, third priority)
///       + R_w                                  (mean (w_i - 1)^2)
/// For FrameworkKind::kSbrl the gamma2 / gamma3 tiers are dropped —
/// classic last-layer-only stable learning.
///
/// `alpha_br` is the *effective* balancing weight (already zeroed for
/// TARNet backbones); `ipm` / `rbf_bandwidth` choose the L_B metric.
///
/// One RFF draw epoch is derived from `rng` per call (i.e. per weight
/// step). Its slot draws live in one RffSlotDraws for the duration of
/// the call, shared by every decorrelation tier, so each column's
/// projection is drawn once per step however many tiers use it.
Var BuildWeightLoss(Var w, const WeightLossInputs& inputs,
                    const SbrlConfig& config, FrameworkKind framework,
                    double alpha_br, IpmKind ipm, double rbf_bandwidth,
                    Rng& rng);

}  // namespace sbrl

#endif  // SBRL_CORE_HAP_H_
