#ifndef SBRL_CORE_BACKBONE_H_
#define SBRL_CORE_BACKBONE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "nn/dense.h"
#include "nn/mlp.h"

namespace sbrl {

/// Everything a backbone exposes from one forward pass. The hierarchy
/// of activations feeds the SBRL-HAP weight loss:
///   z_p     — first priority: factual last hidden layer of the heads,
///   rep     — second priority: the balanced representation Z_r,
///   z_other — third priority: every remaining hidden layer Z_o.
struct BackboneForward {
  /// Potential-outcome predictions (n x 1): logits for binary outcomes,
  /// raw values for continuous outcomes.
  Var y0;
  Var y1;
  /// Balanced representation Z_r (n x d_rep).
  Var rep;
  /// Factual last hidden layer Z_p of the outcome heads (n x h_y).
  Var z_p;
  /// All other hidden layers Z_o, outer to inner.
  std::vector<Var> z_other;
  /// Backbone-specific regularizers (IPM balance, decomposition
  /// losses), already scaled by their configured weights; scalar.
  Var aux_loss;
};

/// A potential-outcome network that SBRL / SBRL-HAP can wrap. The
/// framework only assumes this interface, which is what makes the
/// paper's method model-agnostic (any representation-balancing
/// architecture plugs in).
class Backbone {
 public:
  virtual ~Backbone() = default;

  /// Records one full forward pass on the binder's tape. `w` is the
  /// current (n x 1) sample-weight node — constant during the network
  /// step — consumed by backbones whose internal losses are weighted
  /// (e.g. CFR's IPM, per paper Eq. 4).
  virtual BackboneForward Forward(ParamBinder& binder, const Matrix& x,
                                  const std::vector<int>& t, Var w,
                                  bool training) = 0;

  /// All trainable parameters.
  virtual void CollectParams(std::vector<Param*>* out) = 0;

  /// Parameters subject to the paper's R_l2 head regularizer (outcome
  /// head weight matrices, excluding biases).
  virtual std::vector<Param*> DecayParams() = 0;

  /// Covariate dimension the backbone was built for.
  virtual int64_t input_dim() const = 0;
};

/// Two-head potential-outcome module shared by every backbone: h0 and
/// h1 are depth-d_y MLPs over the representation, each followed by a
/// linear output unit.
class OutcomeHeads {
 public:
  OutcomeHeads() = default;

  /// Builds both heads (`name`.h0 / `name`.h1) over an `in_dim`-wide
  /// representation, sized by `config`, initialized from `rng`.
  OutcomeHeads(const std::string& name, int64_t in_dim,
               const NetworkConfig& config, Rng& rng);

  /// Outputs of one two-head pass, plus the factual activations the
  /// HAP tiers decorrelate.
  struct Result {
    Var y0;                   ///< control-head prediction (n x 1)
    Var y1;                   ///< treated-head prediction (n x 1)
    Var z_p;                  ///< factual last hidden (n x h_y)
    std::vector<Var> hidden;  ///< factual hiddens at all other depths
  };

  /// Forward through both heads; `t` selects each unit's factual head
  /// when assembling z_p / hidden. Training runs each head body on its
  /// own arm only (see the definition).
  Result Forward(ParamBinder& binder, Var rep, const std::vector<int>& t,
                 bool training) const;

  /// Appends all trainable parameters of both heads to `*out`.
  void CollectParams(std::vector<Param*>* out);
  /// Head weight matrices subject to the paper's R_l2 regularizer.
  std::vector<Param*> DecayParams();

 private:
  Mlp body0_;
  Mlp body1_;
  Dense out0_;
  Dense out1_;
};

/// Instantiates the backbone selected by `config.backbone`.
std::unique_ptr<Backbone> CreateBackbone(const EstimatorConfig& config,
                                         int64_t input_dim, Rng& rng);

}  // namespace sbrl

#endif  // SBRL_CORE_BACKBONE_H_
