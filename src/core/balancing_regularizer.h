#ifndef SBRL_CORE_BALANCING_REGULARIZER_H_
#define SBRL_CORE_BALANCING_REGULARIZER_H_

#include <vector>

#include "autodiff/ops.h"

namespace sbrl {

/// Differentiable weighted IPM between the treated-arm and control-arm
/// rows of `rep` under sample weights `w` (paper Eq. 4):
///   L_B = dist(P^w_{Phi_c}, P^w_{Phi_t}).
///
/// Both `rep` (n x d) and `w` (n x 1, non-negative) are tape nodes, so
/// the same expression serves two roles:
///  - in the network step, `rep` is differentiable and `w` constant —
///    the CFR-style balancing pressure on the representation;
///  - in the weight step, `rep` is constant and `w` differentiable —
///    the paper's Balancing Regularizer learning weights that balance
///    the arms (model-free, no gradient into the network).
///
/// The metric is linear MMD: the squared distance between the weighted
/// arm means.
Var WeightedIpmLoss(Var rep, Var w, const std::vector<int>& t);

/// Same metric with the arms and their weights already separated —
/// used by DeR-CFR's confounder balancing, where each arm carries its
/// own learned weighting network omega(C).
Var WeightedIpmLossSplit(Var rep_t, Var w_t, Var rep_c, Var w_c);

}  // namespace sbrl

#endif  // SBRL_CORE_BALANCING_REGULARIZER_H_
