#ifndef SBRL_CORE_TARNET_H_
#define SBRL_CORE_TARNET_H_

#include <vector>

#include "core/backbone.h"

namespace sbrl {

/// TARNet (Shalit et al., 2017): a shared representation network
/// Phi(x) feeding two treatment-specific outcome heads. With
/// `alpha_ipm > 0` the representation additionally minimizes the
/// weighted IPM between arms, which is exactly CFR — CfrBackbone
/// derives from this class by fixing alpha.
class TarnetBackbone : public Backbone {
 public:
  /// Builds the representation network and outcome heads, sized by
  /// `config`, initialized from `rng`; `alpha_ipm > 0` adds the CFR
  /// balancing term.
  TarnetBackbone(const EstimatorConfig& config, int64_t input_dim, Rng& rng,
                 double alpha_ipm);

  /// Backbone::Forward with the (weighted) arm-balancing IPM attached
  /// to aux_loss when alpha_ipm > 0.
  BackboneForward Forward(ParamBinder& binder, const Matrix& x,
                          const std::vector<int>& t, Var w,
                          bool training) override;

  /// All trainable parameters of the representation and heads.
  void CollectParams(std::vector<Param*>* out) override;
  /// Outcome-head weight matrices subject to R_l2.
  std::vector<Param*> DecayParams() override;
  /// Covariate dimension the backbone was built for.
  int64_t input_dim() const override { return input_dim_; }

 private:
  int64_t input_dim_;
  double alpha_ipm_;
  Mlp rep_net_;
  OutcomeHeads heads_;
};

}  // namespace sbrl

#endif  // SBRL_CORE_TARNET_H_
