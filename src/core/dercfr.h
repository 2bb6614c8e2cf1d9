#ifndef SBRL_CORE_DERCFR_H_
#define SBRL_CORE_DERCFR_H_

#include <vector>

#include "core/backbone.h"

namespace sbrl {

/// DeR-CFR (Wu et al., TKDE 2022): decomposes covariates into three
/// learned representations —
///   I(x)  instrumental factors (drive treatment, not outcome),
///   C(x)  confounding factors (drive both),
///   A(x)  adjustment factors (drive outcome, not treatment) —
/// and enforces the decomposition with four structural losses:
///   1. adjustment balance      IPM(A_t, A_c)            (A _||_ T),
///   2. instrument independence Cov(I, Y | T = t) -> 0   (I _||_ Y | T),
///   3. confounder balancing    IPM of C between arms under a learned
///      per-arm weighting network omega(C) with a mean-1 anchor,
///   4. feature-importance orthogonality of the three first-layer
///      weight matrices (each input feature should feed mostly one of
///      I / C / A).
/// Outcome heads read [C, A]; a treatment head reads [I, C].
///
/// The loss weights are fixed constants in the roles of the paper's
/// Table V hyper-parameters {alpha, beta, gamma, mu, lambda}; see the
/// k* weights at the top of dercfr.cc. The instrument
/// independence penalty uses within-arm covariance (a linear HSIC
/// surrogate) rather than the full kernel statistic — a documented
/// simplification (DESIGN.md §5.1) that preserves the decomposition
/// pressure at a fraction of the cost.
class DerCfrBackbone : public Backbone {
 public:
  /// Builds the three decomposed representation networks and both
  /// outcome heads, sized by `config`, initialized from `rng`.
  DerCfrBackbone(const EstimatorConfig& config, int64_t input_dim, Rng& rng);

  /// Backbone::Forward with the DeR-CFR decomposition losses attached
  /// to aux_loss (confounder balance, instrument independence,
  /// orthogonality, adjustment balance, treatment head).
  BackboneForward Forward(ParamBinder& binder, const Matrix& x,
                          const std::vector<int>& t, Var w,
                          bool training) override;

  /// Factual outcomes must be provided before Forward so the
  /// instrument-independence penalty can see Y. The trainer calls this
  /// once per fit; prediction-time forwards pass zero outcomes (the
  /// penalty is ignored when `training` is false).
  void SetOutcomes(const Matrix& y);

  /// All trainable parameters of the three networks and both heads.
  void CollectParams(std::vector<Param*>* out) override;
  /// Outcome-head weight matrices subject to R_l2.
  std::vector<Param*> DecayParams() override;
  /// Covariate dimension the backbone was built for.
  int64_t input_dim() const override { return input_dim_; }

 private:
  int64_t input_dim_;
  Mlp i_net_;
  Mlp c_net_;
  Mlp a_net_;
  OutcomeHeads heads_;
  Dense t_head_;
  Dense weight_head_t_;  // omega(C) for the treated arm
  Dense weight_head_c_;  // omega(C) for the control arm
  Matrix y_;             // factual outcomes for the independence penalty
};

}  // namespace sbrl

#endif  // SBRL_CORE_DERCFR_H_
