#ifndef SBRL_NN_DENSE_H_
#define SBRL_NN_DENSE_H_

#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "nn/initializer.h"
#include "nn/net_step.h"
#include "nn/parameter.h"

namespace sbrl {

/// Fully connected layer: y = x W + b, with W (in x out) and b (1 x out).
class Dense {
 public:
  Dense() = default;

  /// Initializes W Glorot-normal (see InitWeights) and b to zeros.
  Dense(const std::string& name, int64_t in_dim, int64_t out_dim, Rng& rng);

  /// Records x W + b on the binder's tape.
  Var Forward(ParamBinder& binder, Var x) const;

  /// Records elu(x W + b) as one fused ops::AffineAct node. The layer
  /// step of the fused network step (see nn/net_step.h); Mlp routes
  /// every non-batch-norm layer through it.
  Var ForwardElu(ParamBinder& binder, Var x) const;

  /// Binds this layer's parameters on the binder's tape (`*w` = weight,
  /// `*b` = bias) without recording any computation — the hook the
  /// fused BatchNorm-into-affine path uses to consume the affine inside
  /// its own node.
  void BindParams(ParamBinder& binder, Var* w, Var* b) const;

  /// Appends this layer's Params (W then b) to `out`.
  void CollectParams(std::vector<Param*>* out);

  int64_t in_dim() const { return weight_.value.rows(); }
  int64_t out_dim() const { return weight_.value.cols(); }

  const Param& weight() const { return weight_; }
  Param& weight() { return weight_; }
  const Param& bias() const { return bias_; }

 private:
  // Mutable because Forward binds parameters as tape leaves; the layer's
  // logical state is unchanged by a forward pass.
  mutable Param weight_;
  mutable Param bias_;
};

}  // namespace sbrl

#endif  // SBRL_NN_DENSE_H_
