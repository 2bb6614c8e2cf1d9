#ifndef SBRL_NN_MLP_H_
#define SBRL_NN_MLP_H_

#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/net_step.h"

namespace sbrl {

/// Configuration of a multi-layer perceptron.
struct MlpConfig {
  int64_t input_dim = 0;
  /// Width of each hidden layer; e.g. {128, 128, 128} is the paper's
  /// d_r = 3, h_r = 128 representation network.
  std::vector<int64_t> hidden;
  /// Insert a BatchNorm after each affine layer (before the ELU).
  bool batchnorm = false;
};

/// `layers` hidden layers of `width` units over `in_dim` inputs — the
/// shape of every representation network and head body.
MlpConfig MakeMlpConfig(int64_t in_dim, int64_t layers, int64_t width,
                        bool batchnorm);

/// Stack of Dense (+ optional BatchNorm) + ELU layers. Exposes
/// every post-activation layer output so SBRL-HAP can decorrelate each
/// hierarchy level (the Z_o / Z_r / Z_p layers of the paper).
class Mlp {
 public:
  Mlp() = default;
  Mlp(const std::string& name, const MlpConfig& config, Rng& rng);

  /// Runs the full stack, returning every post-activation layer output
  /// in order; back() is the network output. Each Dense (+BatchNorm) +
  /// activation layer is recorded as one fused tape node (see
  /// nn/net_step.h).
  std::vector<Var> ForwardCollect(ParamBinder& binder, Var x,
                                  bool training) const;

  /// Runs the full stack, returning only the final output.
  Var Forward(ParamBinder& binder, Var x, bool training) const;

  void CollectParams(std::vector<Param*>* out);

  /// Appends named references to every BatchNorm running statistic in
  /// the stack (no-op when batchnorm is off); see
  /// BatchNorm::CollectStateMatrices.
  void CollectStateMatrices(std::vector<NamedStateRef>* out);

  int64_t input_dim() const { return config_.input_dim; }
  int64_t output_dim() const {
    return config_.hidden.empty() ? config_.input_dim
                                  : config_.hidden.back();
  }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  /// True when a BatchNorm follows every affine layer.
  bool batchnorm() const { return config_.batchnorm; }

  /// Access to individual layers (e.g. DeR-CFR binds first-layer
  /// weights for its feature-importance orthogonality penalty).
  Dense& mutable_layer(int i) {
    SBRL_CHECK(i >= 0 && i < num_layers());
    return layers_[static_cast<size_t>(i)];
  }

 private:
  MlpConfig config_;
  std::vector<Dense> layers_;
  std::vector<BatchNorm> norms_;  // parallel to layers_ when batchnorm on
};

}  // namespace sbrl

#endif  // SBRL_NN_MLP_H_
