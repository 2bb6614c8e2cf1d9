#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/cpu.h"

namespace sbrl {
namespace serve {

StatusOr<ServingModel> ServingModel::FromData(ServingModelData data) {
  SBRL_ASSIGN_OR_RETURN(
      InferenceNet net,
      InferenceNet::Build(data.meta.spec, std::move(data.weights)));
  ServingModel model(std::move(net));
  model.meta_ = data.meta;
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

Matrix ServingModel::ScoreOutcomes(const Matrix& x) const {
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
