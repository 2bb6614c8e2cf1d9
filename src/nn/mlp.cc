#include "nn/mlp.h"

namespace sbrl {

Mlp::Mlp(const std::string& name, const MlpConfig& config, Rng& rng)
    : config_(config) {
  SBRL_CHECK_GT(config.input_dim, 0);
  int64_t in = config.input_dim;
  for (size_t i = 0; i < config.hidden.size(); ++i) {
    const int64_t out = config.hidden[i];
    SBRL_CHECK_GT(out, 0);
    layers_.emplace_back(name + ".l" + std::to_string(i), in, out, rng,
                         config.init);
    if (config.batchnorm) {
      norms_.emplace_back(name + ".bn" + std::to_string(i), out);
    }
    in = out;
  }
}

std::vector<Var> Mlp::ForwardCollect(ParamBinder& binder, Var x,
                                     bool training) const {
  std::vector<Var> outputs;
  outputs.reserve(layers_.size());
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = config_.batchnorm
            ? norms_[i].ForwardFusedAffine(binder, layers_[i], h, training,
                                           config_.activation)
            : layers_[i].ForwardAct(binder, h, config_.activation);
    outputs.push_back(h);
  }
  if (outputs.empty()) outputs.push_back(x);  // degenerate identity MLP
  return outputs;
}

Var Mlp::Forward(ParamBinder& binder, Var x, bool training) const {
  return ForwardCollect(binder, x, training).back();
}

void Mlp::CollectParams(std::vector<Param*>* out) {
  for (auto& layer : layers_) layer.CollectParams(out);
  for (auto& norm : norms_) norm.CollectParams(out);
}

void Mlp::CollectStateMatrices(std::vector<NamedStateRef>* out) {
  for (auto& norm : norms_) norm.CollectStateMatrices(out);
}

}  // namespace sbrl
