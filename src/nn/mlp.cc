#include "nn/mlp.h"

namespace sbrl {

MlpConfig MakeMlpConfig(int64_t in_dim, int64_t layers, int64_t width) {
  MlpConfig config;
  config.input_dim = in_dim;
  config.hidden.assign(static_cast<size_t>(layers), width);
  return config;
}

Mlp::Mlp(const std::string& name, const MlpConfig& config, Rng& rng)
    : config_(config) {
  SBRL_CHECK_GT(config.input_dim, 0);
  int64_t in = config.input_dim;
  for (size_t i = 0; i < config.hidden.size(); ++i) {
    const int64_t out = config.hidden[i];
    SBRL_CHECK_GT(out, 0);
    layers_.emplace_back(name + ".l" + std::to_string(i), in, out, rng);
    in = out;
  }
}

std::vector<Var> Mlp::ForwardCollect(ParamBinder& binder, Var x) const {
  std::vector<Var> outputs;
  outputs.reserve(layers_.size());
  Var h = x;
  for (const Dense& layer : layers_) {
    h = layer.ForwardElu(binder, h);
    outputs.push_back(h);
  }
  if (outputs.empty()) outputs.push_back(x);  // degenerate identity MLP
  return outputs;
}

Var Mlp::Forward(ParamBinder& binder, Var x) const {
  return ForwardCollect(binder, x).back();
}

void Mlp::CollectParams(std::vector<Param*>* out) {
  for (auto& layer : layers_) layer.CollectParams(out);
}

}  // namespace sbrl
