#ifndef SBRL_NN_MLP_H_
#define SBRL_NN_MLP_H_

#include <string>
#include <vector>

#include "nn/dense.h"

namespace sbrl {

// The network step records each MLP layer (Dense -> ELU, the paper's
// activation on every hidden layer) as ONE tape node, ops::AffineAct.
// The pre-activation is consumed in-pass instead of living on the
// tape, and the fused backward emits dx / dW / db from pooled
// temporaries. The per-primitive chain (Dense::Forward, then ELU) is
// the reference the tests hold it to (see tests/reference_net.h):
// values AND gradients are bitwise equal (the same kernels run in the
// same order), and the recording is bitwise invariant to the
// worker-thread count. Linear output layers (ops::ActKind::kIdentity)
// are plain Dense::Forward affines.

/// Configuration of a multi-layer perceptron.
struct MlpConfig {
  int64_t input_dim = 0;
  /// Width of each hidden layer; e.g. {128, 128, 128} is the paper's
  /// d_r = 3, h_r = 128 representation network.
  std::vector<int64_t> hidden;
};

/// `layers` hidden layers of `width` units over `in_dim` inputs — the
/// shape of every representation network and head body.
MlpConfig MakeMlpConfig(int64_t in_dim, int64_t layers, int64_t width);

/// Stack of Dense + ELU layers. Exposes
/// every post-activation layer output so SBRL-HAP can decorrelate each
/// hierarchy level (the Z_o / Z_r / Z_p layers of the paper).
class Mlp {
 public:
  Mlp() = default;
  Mlp(const std::string& name, const MlpConfig& config, Rng& rng);

  /// Runs the full stack, returning every post-activation layer output
  /// in order; back() is the network output. Each Dense + ELU layer is
  /// recorded as one fused tape node (see the network-step note above).
  std::vector<Var> ForwardCollect(ParamBinder& binder, Var x) const;

  /// Runs the full stack, returning only the final output.
  Var Forward(ParamBinder& binder, Var x) const;

  void CollectParams(std::vector<Param*>* out);

  int64_t input_dim() const { return config_.input_dim; }
  int64_t output_dim() const {
    return config_.hidden.empty() ? config_.input_dim
                                  : config_.hidden.back();
  }
  int num_layers() const { return static_cast<int>(layers_.size()); }

  /// Access to individual layers (e.g. DeR-CFR binds first-layer
  /// weights for its feature-importance orthogonality penalty).
  Dense& mutable_layer(int i) {
    SBRL_CHECK(i >= 0 && i < num_layers());
    return layers_[static_cast<size_t>(i)];
  }

 private:
  MlpConfig config_;
  std::vector<Dense> layers_;
};

}  // namespace sbrl

#endif  // SBRL_NN_MLP_H_
