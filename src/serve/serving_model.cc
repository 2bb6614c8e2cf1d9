#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "autodiff/ops.h"
#include "autodiff/ops_f32.h"
#include "common/cpu.h"
#include "nn/net_step.h"

namespace sbrl {
namespace serve {

namespace {

using MatrixMap = std::unordered_map<std::string, Matrix>;

MatrixMap IndexByName(std::vector<NamedMatrix> items) {
  MatrixMap map;
  map.reserve(items.size());
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
    return Status::InvalidArgument("serving model missing tensor: " + name);
  }
  if (it->second.rows() != rows || it->second.cols() != cols) {
    return Status::InvalidArgument(
        "serving model tensor " + name + " has shape " +
        it->second.ShapeString() + ", expected (" + std::to_string(rows) +
        " x " + std::to_string(cols) + ")");
  }
  *out = std::move(it->second);
  return Status::OK();
}

}  // namespace

StatusOr<ServingModel> ServingModel::FromData(ServingModelData data) {
  ServingModel model;
  model.meta_ = data.meta;
  model.precision_ = ResolvePrecision(Precision::kF64);
  const NetworkConfig& net = data.meta.network;
  MatrixMap weights = IndexByName(std::move(data.weights));
  MatrixMap state = IndexByName(std::move(data.state));
  // The exported f32 tensors (when present) take priority over
  // loader-side narrowing, so a round-tripped file scores the exact
  // bits that were written.
  std::unordered_map<std::string, MatrixF32> weights_f32;
  weights_f32.reserve(data.weights_f32.size());
  for (NamedMatrixF32& item : data.weights_f32) {
    weights_f32.emplace(std::move(item.name), std::move(item.value));
  }
  // Fills `*out` with the f32 twin of the f64 tensor `ref` named
  // `name`: the exported f32 tensor when one rode along (shape-checked
  // against the f64 tensor), else FromF64 narrowing.
  auto f32_of = [&](const std::string& name, const Matrix& ref,
                    MatrixF32* out) -> Status {
    auto it = weights_f32.find(name);
    if (it == weights_f32.end()) {
      *out = MatrixF32::FromF64(ref);
      return Status::OK();
    }
    if (it->second.rows() != ref.rows() || it->second.cols() != ref.cols()) {
      return Status::InvalidArgument(
          "serving model f32 tensor " + name + " has shape " +
          it->second.ShapeString() + ", expected " + ref.ShapeString());
    }
    *out = std::move(it->second);
    weights_f32.erase(it);
    return Status::OK();
  };

  // Mirrors Mlp's module naming: layer i is "<prefix>.l<i>" with
  // params .W/.b, its BatchNorm "<prefix>.bn<i>" with params
  // .gamma/.beta and state .running_mean/.running_var.
  auto build_stack = [&](const std::string& prefix, int64_t in_dim,
                         int64_t layers, int64_t width, Stack* out,
                         StackF32* out32) -> Status {
    out->layers.clear();
    out32->layers.clear();
    for (int64_t i = 0; i < layers; ++i) {
      Layer layer;
      LayerF32 layer32;
      const std::string dense = prefix + ".l" + std::to_string(i);
      const int64_t in = i == 0 ? in_dim : width;
      SBRL_RETURN_IF_ERROR(Take(&weights, dense + ".W", in, width,
                                &layer.w));
      SBRL_RETURN_IF_ERROR(Take(&weights, dense + ".b", 1, width, &layer.b));
      SBRL_RETURN_IF_ERROR(f32_of(dense + ".W", layer.w, &layer32.w));
      SBRL_RETURN_IF_ERROR(f32_of(dense + ".b", layer.b, &layer32.b));
      if (net.batchnorm) {
        layer.has_bn = true;
        layer32.has_bn = true;
        const std::string bn = prefix + ".bn" + std::to_string(i);
        SBRL_RETURN_IF_ERROR(Take(&weights, bn + ".gamma", 1, width,
                                  &layer.gamma));
        SBRL_RETURN_IF_ERROR(Take(&weights, bn + ".beta", 1, width,
                                  &layer.beta));
        SBRL_RETURN_IF_ERROR(Take(&state, bn + ".running_mean", 1, width,
                                  &layer.running_mean));
        SBRL_RETURN_IF_ERROR(Take(&state, bn + ".running_var", 1, width,
                                  &layer.running_var));
        SBRL_RETURN_IF_ERROR(f32_of(bn + ".gamma", layer.gamma,
                                    &layer32.gamma));
        SBRL_RETURN_IF_ERROR(f32_of(bn + ".beta", layer.beta,
                                    &layer32.beta));
        // BatchNorm running statistics live in the f64 state section
        // only; the f32 tier always narrows them.
        layer32.running_mean = MatrixF32::FromF64(layer.running_mean);
        layer32.running_var = MatrixF32::FromF64(layer.running_var);
      }
      out->layers.push_back(std::move(layer));
      out32->layers.push_back(std::move(layer32));
    }
    return Status::OK();
  };
  auto build_dense = [&](const std::string& name, int64_t in, int64_t out_dim,
                         Layer* out, LayerF32* out32) -> Status {
    SBRL_RETURN_IF_ERROR(Take(&weights, name + ".W", in, out_dim, &out->w));
    SBRL_RETURN_IF_ERROR(Take(&weights, name + ".b", 1, out_dim, &out->b));
    SBRL_RETURN_IF_ERROR(f32_of(name + ".W", out->w, &out32->w));
    SBRL_RETURN_IF_ERROR(f32_of(name + ".b", out->b, &out32->b));
    return Status::OK();
  };

  const int64_t d = data.meta.input_dim;
  int64_t rep_out = net.rep_width;
  if (data.meta.backbone == BackboneKind::kDerCfr) {
    SBRL_RETURN_IF_ERROR(build_stack("C", d, net.rep_layers, net.rep_width,
                                     &model.rep_c_, &model.rep_c32_));
    SBRL_RETURN_IF_ERROR(build_stack("A", d, net.rep_layers, net.rep_width,
                                     &model.rep_a_, &model.rep_a32_));
    rep_out = 2 * net.rep_width;
  } else {
    SBRL_RETURN_IF_ERROR(build_stack("rep", d, net.rep_layers,
                                     net.rep_width, &model.rep_,
                                     &model.rep32_));
  }
  SBRL_RETURN_IF_ERROR(build_stack("heads.h0", rep_out, net.head_layers,
                                   net.head_width, &model.body0_,
                                   &model.body032_));
  SBRL_RETURN_IF_ERROR(build_stack("heads.h1", rep_out, net.head_layers,
                                   net.head_width, &model.body1_,
                                   &model.body132_));
  SBRL_RETURN_IF_ERROR(build_dense("heads.h0.out", net.head_width, 1,
                                   &model.out0_, &model.out032_));
  SBRL_RETURN_IF_ERROR(build_dense("heads.h1.out", net.head_width, 1,
                                   &model.out1_, &model.out132_));

  if (data.has_ood) {
    SBRL_ASSIGN_OR_RETURN(OodLevelDetector detector,
                          OodLevelDetector::FromState(data.ood));
    if (data.ood.source.cols() != d) {
      return Status::InvalidArgument(
          "serving model OOD detector dimension mismatch");
    }
    model.detector_.emplace(std::move(detector));
    // Row-level null calibration: the distance of a SINGLE source row
    // to the full source is large even in distribution (a point mass
    // never looks like a population), so per-row gating needs its own
    // null. Deterministic stride sample of source rows, each measured
    // against the source like a one-row request would be.
    const Matrix& source = data.ood.source;
    const int64_t n = source.rows();
    const int64_t k = std::min<int64_t>(64, n);
    std::vector<double> distances;
    distances.reserve(static_cast<size_t>(k));
    Matrix row(1, d);
    for (int64_t i = 0; i < k; ++i) {
      const int64_t r = i * n / k;
      for (int64_t c = 0; c < d; ++c) row(0, c) = source(r, c);
      distances.push_back(model.detector_->DistanceTo(row));
    }
    std::sort(distances.begin(), distances.end());
    const size_t q95 = static_cast<size_t>(
        0.95 * static_cast<double>(distances.size() - 1));
    model.row_null_q95_ = distances[q95];
    double mean = 0.0;
    for (double v : distances) mean += v;
    mean /= static_cast<double>(distances.size());
    model.row_null_scale_ = std::max(mean, 1e-9);
  }
  return model;
}

StatusOr<ServingModel> ServingModel::Load(const std::string& path) {
  SBRL_ASSIGN_OR_RETURN(ServingModelData data, LoadServingModel(path));
  return FromData(std::move(data));
}

Matrix ServingModel::RunStack(const Stack& stack, const Matrix& x) const {
  const ops::ActKind act = meta_.network.activation;
  Matrix h = x;
  for (const Layer& layer : stack.layers) {
    if (layer.has_bn) {
      h = ops::AffineBatchNormInferActValue(
          h, layer.w, layer.b, layer.gamma, layer.beta, layer.running_mean,
          layer.running_var, meta_.bn_eps, act);
    } else {
      h = ops::AffineActValue(h, layer.w, layer.b, act);
    }
  }
  return h;
}

Matrix ServingModel::Representation(const Matrix& x) const {
  if (meta_.backbone == BackboneKind::kDerCfr) {
    Matrix rep_c = RunStack(rep_c_, x);
    Matrix rep_a = RunStack(rep_a_, x);
    if (meta_.network.rep_normalization) {
      rep_c = ops::NormalizeRowsValue(rep_c);
      rep_a = ops::NormalizeRowsValue(rep_a);
    }
    return ops::ConcatColsValue(rep_c, rep_a);
  }
  Matrix rep = RunStack(rep_, x);
  if (meta_.network.rep_normalization) rep = ops::NormalizeRowsValue(rep);
  return rep;
}

MatrixF32 ServingModel::RunStackF32(const StackF32& stack,
                                    const MatrixF32& x) const {
  const ops::ActKind act = meta_.network.activation;
  MatrixF32 h = x;
  for (const LayerF32& layer : stack.layers) {
    if (layer.has_bn) {
      h = ops::AffineBatchNormInferActValueF32(
          h, layer.w, layer.b, layer.gamma, layer.beta, layer.running_mean,
          layer.running_var, meta_.bn_eps, act);
    } else {
      h = ops::AffineActValueF32(h, layer.w, layer.b, act);
    }
  }
  return h;
}

MatrixF32 ServingModel::RepresentationF32(const MatrixF32& x) const {
  if (meta_.backbone == BackboneKind::kDerCfr) {
    MatrixF32 rep_c = RunStackF32(rep_c32_, x);
    MatrixF32 rep_a = RunStackF32(rep_a32_, x);
    if (meta_.network.rep_normalization) {
      rep_c = ops::NormalizeRowsValueF32(rep_c);
      rep_a = ops::NormalizeRowsValueF32(rep_a);
    }
    return ops::ConcatColsValueF32(rep_c, rep_a);
  }
  MatrixF32 rep = RunStackF32(rep32_, x);
  if (meta_.network.rep_normalization) {
    rep = ops::NormalizeRowsValueF32(rep);
  }
  return rep;
}

Matrix ServingModel::ScoreOutcomesF32(const Matrix& x) const {
  SBRL_CHECK_EQ(x.cols(), meta_.input_dim)
      << "request dimension does not match the exported model";
  // Same ISA pin as the f64 path: the f32 tables are resolved per
  // level too, so which f32 kernels run is part of the result's
  // provenance just like in f64.
  ScopedThreadIsa isa_scope(meta_.isa);
  const MatrixF32 x32 = MatrixF32::FromF64(x);
  const MatrixF32 rep = RepresentationF32(x32);
  const MatrixF32 h0 = RunStackF32(body032_, rep);
  const MatrixF32 h1 = RunStackF32(body132_, rep);
  const MatrixF32 y0 =
      ops::AffineActValueF32(h0, out032_.w, out032_.b, ops::ActKind::kIdentity);
  const MatrixF32 y1 =
      ops::AffineActValueF32(h1, out132_.w, out132_.b, ops::ActKind::kIdentity);

  // Post-processing is shared with the f64 scorer: the head outputs
  // are widened and pushed through the identical f64 sigmoid /
  // de-standardization, so the two tiers differ only by the f32
  // forward itself.
  Matrix out(x.rows(), 2);
  for (int64_t i = 0; i < x.rows(); ++i) {
    double a = static_cast<double>(y0(i, 0));
    double b = static_cast<double>(y1(i, 0));
    if (meta_.binary_outcome) {
      a = 1.0 / (1.0 + std::exp(-a));
      b = 1.0 / (1.0 + std::exp(-b));
    } else {
      a = a * meta_.y_std + meta_.y_mean;
      b = b * meta_.y_std + meta_.y_mean;
    }
    out(i, 0) = a;
    out(i, 1) = b;
  }
  return out;
}

Matrix ServingModel::ScoreOutcomes(const Matrix& x) const {
  if (precision_ == Precision::kF32) return ScoreOutcomesF32(x);
  SBRL_CHECK_EQ(x.cols(), meta_.input_dim)
      << "request dimension does not match the exported model";
  // Pin the exported ISA choice exactly like PredictPotentialOutcomes
  // pins the estimator's, so both paths dispatch the same kernels.
  ScopedThreadIsa isa_scope(meta_.isa);
  const Matrix rep = Representation(x);
  const Matrix h0 = RunStack(body0_, rep);
  const Matrix h1 = RunStack(body1_, rep);
  const Matrix y0 =
      ops::AffineActValue(h0, out0_.w, out0_.b, ops::ActKind::kIdentity);
  const Matrix y1 =
      ops::AffineActValue(h1, out1_.w, out1_.b, ops::ActKind::kIdentity);

  Matrix out(x.rows(), 2);
  for (int64_t i = 0; i < x.rows(); ++i) {
    double a = y0(i, 0);
    double b = y1(i, 0);
    if (meta_.binary_outcome) {
      // The estimator's literal sigmoid (not StableSigmoid): serving
      // must reproduce Predict bit for bit.
      a = 1.0 / (1.0 + std::exp(-a));
      b = 1.0 / (1.0 + std::exp(-b));
    } else {
      a = a * meta_.y_std + meta_.y_mean;
      b = b * meta_.y_std + meta_.y_mean;
    }
    out(i, 0) = a;
    out(i, 1) = b;
  }
  return out;
}

ServingModel::BatchScore ServingModel::Score(const Matrix& x) const {
  return Score(x, ScoreOptions());
}

std::vector<ServingModel::RowScore> ServingModel::ScoreRows(
    const Matrix& x) const {
  return ScoreRows(x, ScoreOptions());
}

ServingModel::BatchScore ServingModel::Score(
    const Matrix& x, const ScoreOptions& options) const {
  BatchScore score;
  score.outcomes = ScoreOutcomes(x);
  score.ite.reserve(static_cast<size_t>(x.rows()));
  for (int64_t i = 0; i < x.rows(); ++i) {
    score.ite.push_back(score.outcomes(i, 1) - score.outcomes(i, 0));
  }
  if (options.ood && detector_.has_value()) {
    score.ood_level = detector_->LevelOf(x);
    score.ood_flagged = score.ood_level >= options.ood_threshold;
  }
  return score;
}

std::vector<ServingModel::RowScore> ServingModel::ScoreRows(
    const Matrix& x, const ScoreOptions& options) const {
  const Matrix outcomes = ScoreOutcomes(x);
  const bool gate = options.ood && detector_.has_value();
  std::vector<RowScore> rows(static_cast<size_t>(x.rows()));
  Matrix row(1, x.cols());
  for (int64_t i = 0; i < x.rows(); ++i) {
    RowScore& r = rows[static_cast<size_t>(i)];
    r.y0 = outcomes(i, 0);
    r.y1 = outcomes(i, 1);
    r.ite = r.y1 - r.y0;
    if (gate) {
      for (int64_t c = 0; c < x.cols(); ++c) row(0, c) = x(i, c);
      r.ood_level = RowOodLevel(row);
      r.ood_flagged = r.ood_level >= options.ood_threshold;
    }
  }
  return rows;
}

double ServingModel::RowOodLevel(const Matrix& row) const {
  SBRL_CHECK(detector_.has_value()) << "model carries no OOD detector";
  SBRL_CHECK_EQ(row.rows(), 1);
  const double distance = detector_->DistanceTo(row);
  const double excess = std::max(0.0, distance - row_null_q95_);
  return 1.0 - std::exp(-excess / row_null_scale_);
}

double ServingModel::OodLevelOf(const Matrix& x) const {
  SBRL_CHECK(detector_.has_value()) << "model carries no OOD detector";
  return detector_->LevelOf(x);
}

}  // namespace serve
}  // namespace sbrl
