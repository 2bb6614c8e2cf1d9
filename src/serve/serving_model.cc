#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "autodiff/ops.h"
#include "autodiff/ops_f32.h"
#include "common/cpu.h"

namespace sbrl {
namespace serve {

StatusOr<ServingModel> ServingModel::FromData(ServingModelData data) {
  SBRL_ASSIGN_OR_RETURN(
      InferenceNet net,
      InferenceNet::Build(data.meta.spec, std::move(data.weights),
                          std::move(data.state)));
  ServingModel model(std::move(net));
  model.meta_ = data.meta;
  model.precision_ = ResolvePrecision(Precision::kF64);
  // The exported f32 tensors (when present) take priority over
  // loader-side narrowing, so a round-tripped file scores the exact
  // bits that were written.
  std::unordered_map<std::string, MatrixF32> weights_f32;
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
  auto twin = [&](const InferenceNet::Stack& stack,
                  StackF32* out) -> Status {
    for (const InferenceNet::Layer& layer : stack) {
      LayerF32 layer32;
      layer32.bn_name = layer.bn_name;
      layer32.act = layer.act;
      SBRL_RETURN_IF_ERROR(f32_of(layer.name + ".W", layer.w, &layer32.w));
      SBRL_RETURN_IF_ERROR(f32_of(layer.name + ".b", layer.b, &layer32.b));
      if (layer.has_bn()) {
        SBRL_RETURN_IF_ERROR(
            f32_of(layer.bn_name + ".gamma", layer.gamma, &layer32.gamma));
        SBRL_RETURN_IF_ERROR(
            f32_of(layer.bn_name + ".beta", layer.beta, &layer32.beta));
        // BatchNorm running statistics live in the f64 state section
        // only; the f32 tier always narrows them.
        layer32.running_mean = MatrixF32::FromF64(layer.running_mean);
        layer32.running_var = MatrixF32::FromF64(layer.running_var);
      }
      out->push_back(std::move(layer32));
    }
    return Status::OK();
  };
  for (const InferenceNet::Stack& stack : model.net_.reps()) {
    model.reps32_.emplace_back();
    SBRL_RETURN_IF_ERROR(twin(stack, &model.reps32_.back()));
  }
  for (size_t arm = 0; arm < 2; ++arm) {
    SBRL_RETURN_IF_ERROR(twin(model.net_.heads()[arm], &model.heads32_[arm]));
  }

  const int64_t d = data.meta.spec.input_dim;
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

MatrixF32 ServingModel::RunStackF32(const StackF32& stack,
                                    const MatrixF32& x) const {
  MatrixF32 h = x;
  for (const LayerF32& layer : stack) {
    if (layer.has_bn()) {
      h = ops::AffineBatchNormInferActValueF32(
          h, layer.w, layer.b, layer.gamma, layer.beta, layer.running_mean,
          layer.running_var, meta_.spec.bn_eps, layer.act);
    } else {
      h = ops::AffineActValueF32(h, layer.w, layer.b, layer.act);
    }
  }
  return h;
}

MatrixF32 ServingModel::RepresentationF32(const MatrixF32& x) const {
  const bool normalize = meta_.spec.network.rep_normalization;
  const auto part = [&](const StackF32& stack) {
    MatrixF32 h = RunStackF32(stack, x);
    return normalize ? ops::NormalizeRowsValueF32(h) : h;
  };
  MatrixF32 rep = part(reps32_[0]);
  for (size_t i = 1; i < reps32_.size(); ++i) {
    rep = ops::ConcatColsValueF32(rep, part(reps32_[i]));
  }
  return rep;
}

Matrix ServingModel::ScoreOutcomesF32(const Matrix& x) const {
  SBRL_CHECK_EQ(x.cols(), meta_.spec.input_dim)
      << "request dimension does not match the exported model";
  // Same ISA pin as the f64 path: the f32 tables are resolved per
  // level too, so which f32 kernels run is part of the result's
  // provenance just like in f64.
  ScopedThreadIsa isa_scope(meta_.isa);
  const MatrixF32 rep = RepresentationF32(MatrixF32::FromF64(x));
  // The head outputs are widened and mapped through the f64 scorer's
  // own ToOutcomes, so the two tiers differ only by the f32 forward.
  const MatrixF32 heads = ops::ConcatColsValueF32(
      RunStackF32(heads32_[0], rep), RunStackF32(heads32_[1], rep));
  return net_.ToOutcomes(heads.ToF64());
}

Matrix ServingModel::ScoreOutcomes(const Matrix& x) const {
  if (precision_ == Precision::kF32) return ScoreOutcomesF32(x);
  // Pin the exported ISA choice exactly like PredictPotentialOutcomes
  // pins the estimator's, so both paths dispatch the same kernels.
  ScopedThreadIsa isa_scope(meta_.isa);
  return net_.ToOutcomes(net_.Heads(x));
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
