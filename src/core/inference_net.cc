#include "core/inference_net.h"

#include <cmath>
#include <unordered_map>
#include <utility>

namespace sbrl {

namespace {

using MatrixMap = std::unordered_map<std::string, Matrix>;

MatrixMap IndexByName(std::vector<NamedMatrix> items) {
  MatrixMap map;
  for (NamedMatrix& item : items) {
    map.emplace(std::move(item.name), std::move(item.value));
  }
  return map;
}

/// Moves the tensor `name` out of `map`, requiring shape (rows x cols).
Status Take(MatrixMap* map, const std::string& name, int64_t rows,
            int64_t cols, Matrix* out) {
  auto it = map->find(name);
  if (it == map->end()) {
    return Status::InvalidArgument("model missing tensor: " + name);
  }
  if (it->second.rows() != rows || it->second.cols() != cols) {
    return Status::InvalidArgument(
        "model tensor " + name + " has shape " +
        it->second.ShapeString() + ", expected (" + std::to_string(rows) +
        " x " + std::to_string(cols) + ")");
  }
  *out = std::move(it->second);
  return Status::OK();
}

}  // namespace

void CaptureTensors(Backbone& backbone, std::vector<NamedMatrix>* weights) {
  std::vector<Param*> params;
  backbone.CollectParams(&params);
  weights->reserve(weights->size() + params.size());
  for (const Param* p : params) weights->push_back({p->name, p->value});
}

StatusOr<InferenceNet> InferenceNet::Build(const InferenceSpec& spec,
                                           std::vector<NamedMatrix> weights) {
  MatrixMap w = IndexByName(std::move(weights));
  const NetworkConfig& net = spec.network;
  auto add_layer = [&](const std::string& name, int64_t in, int64_t out,
                       ops::ActKind act, Stack* stack) -> Status {
    Layer layer;
    layer.name = name;
    layer.act = act;
    SBRL_RETURN_IF_ERROR(Take(&w, name + ".W", in, out, &layer.w));
    SBRL_RETURN_IF_ERROR(Take(&w, name + ".b", 1, out, &layer.b));
    stack->push_back(std::move(layer));
    return Status::OK();
  };
  // Mirrors Mlp's module naming: layer i is "<prefix>.l<i>" with
  // params .W/.b.
  auto add_mlp = [&](const std::string& prefix, int64_t in_dim,
                     int64_t layers, int64_t width, Stack* stack) -> Status {
    for (int64_t i = 0; i < layers; ++i) {
      SBRL_RETURN_IF_ERROR(add_layer(prefix + ".l" + std::to_string(i),
                                     i == 0 ? in_dim : width, width,
                                     ops::ActKind::kElu, stack));
    }
    return Status::OK();
  };

  InferenceNet model;
  model.spec_ = spec;
  const std::vector<std::string> rep_prefixes =
      spec.backbone == BackboneKind::kDerCfr
          ? std::vector<std::string>{"C", "A"}
          : std::vector<std::string>{"rep"};
  for (const std::string& prefix : rep_prefixes) {
    model.reps_.emplace_back();
    SBRL_RETURN_IF_ERROR(add_mlp(prefix, spec.input_dim, net.rep_layers,
                                 net.rep_width, &model.reps_.back()));
  }
  const int64_t rep_out =
      static_cast<int64_t>(rep_prefixes.size()) * net.rep_width;
  for (int arm = 0; arm < 2; ++arm) {
    const std::string prefix = "heads.h" + std::to_string(arm);
    Stack* head = &model.heads_[static_cast<size_t>(arm)];
    SBRL_RETURN_IF_ERROR(add_mlp(prefix, rep_out, net.head_layers,
                                 net.head_width, head));
    SBRL_RETURN_IF_ERROR(add_layer(prefix + ".out", net.head_width, 1,
                                   ops::ActKind::kIdentity, head));
  }
  return model;
}

InferenceNet InferenceNet::FromBackbone(Backbone& backbone,
                                        const InferenceSpec& spec) {
  std::vector<NamedMatrix> weights;
  CaptureTensors(backbone, &weights);
  StatusOr<InferenceNet> net = Build(spec, std::move(weights));
  SBRL_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

Matrix InferenceNet::Run(const Stack& stack, const Matrix& x,
                         MatrixPool* pool) const {
  if (stack.empty()) return x;
  // The first layer reads `x` in place; each spent layer output goes
  // back to `pool`, so repeated calls (one per shard) reuse storage.
  const Matrix* in = &x;
  Matrix h;
  for (const Layer& layer : stack) {
    Matrix next = ops::AffineActValue(*in, layer.w, layer.b, layer.act, pool);
    if (pool != nullptr) pool->Release(std::move(h));
    h = std::move(next);
    in = &h;
  }
  return h;
}

Matrix InferenceNet::Representation(const Matrix& x,
                                    MatrixPool* pool) const {
  SBRL_CHECK_EQ(x.cols(), spec_.input_dim)
      << "input dimension does not match the network";
  Matrix rep = Run(reps_[0], x, pool);
  for (size_t i = 1; i < reps_.size(); ++i) {
    rep = ops::ConcatColsValue(rep, Run(reps_[i], x, pool));
  }
  return rep;
}

Matrix InferenceNet::Heads(const Matrix& x, MatrixPool* pool) const {
  Matrix rep = Representation(x, pool);
  Matrix heads = ops::ConcatColsValue(Run(heads_[0], rep, pool),
                                      Run(heads_[1], rep, pool));
  if (pool != nullptr) pool->Release(std::move(rep));
  return heads;
}

Matrix InferenceNet::ToOutcomes(Matrix heads) const {
  for (int64_t i = 0; i < heads.size(); ++i) {
    const double z = heads[i];
    heads[i] = spec_.binary_outcome ? 1.0 / (1.0 + std::exp(-z))
                                    : z * spec_.y_std + spec_.y_mean;
  }
  return heads;
}

}  // namespace sbrl
