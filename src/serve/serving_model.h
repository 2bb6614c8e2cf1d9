#ifndef SBRL_SERVE_SERVING_MODEL_H_
#define SBRL_SERVE_SERVING_MODEL_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/inference_net.h"
#include "core/ood_detector.h"
#include "serve/model_format.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace serve {

/// Immutable scorer over an exported model: load once, share freely
/// across threads. The score path takes no locks, allocates no tape,
/// and mutates no member state — the forward is the same
/// InferenceNet the fitted estimator predicts through, built from the
/// decoded tensors and pinned to the exported ISA choice, so
/// ScoreOutcomes is bitwise identical to PredictPotentialOutcomes.
/// Each output row depends only on its input row, which is what lets
/// the micro-batcher coalesce requests without changing any result bit
/// (see MicroBatcher).
class ServingModel {
 public:
  /// Per-request scoring knobs.
  struct ScoreOptions {
    /// Stamp responses with the OOD detector's shift level (no-op when
    /// the model carries no detector).
    bool ood = true;
    /// Levels >= this threshold set the flagged bit.
    double ood_threshold = 0.5;
  };

  /// One scored request row.
  struct RowScore {
    /// Predicted potential outcome under control.
    double y0 = 0.0;
    /// Predicted potential outcome under treatment.
    double y1 = 0.0;
    /// Individual treatment effect y1 - y0.
    double ite = 0.0;
    /// Row-level OOD level in [0, 1] (0 when gating is off or the
    /// model has no detector).
    double ood_level = 0.0;
    /// True when ood_level >= the request's threshold.
    bool ood_flagged = false;
  };

  /// One scored request batch.
  struct BatchScore {
    /// (n x 2) potential outcomes: column 0 = y0_hat, column 1 =
    /// y1_hat; bitwise equal to PredictPotentialOutcomes.
    Matrix outcomes;
    /// Per-row treatment effects y1_hat - y0_hat.
    std::vector<double> ite;
    /// Population-level OOD level of the whole batch (0 when gating is
    /// off or the model has no detector).
    double ood_level = 0.0;
    /// True when ood_level >= the request's threshold.
    bool ood_flagged = false;
  };

  /// Builds a scorer from decoded model data, resolving every tensor
  /// name against the meta's architecture and shape-checking it.
  /// Returns InvalidArgument on a missing tensor, a shape mismatch, or
  /// invalid OOD state. When a detector rides along, its row-level
  /// null distances are calibrated here (see RowOodLevel).
  static StatusOr<ServingModel> FromData(ServingModelData data);

  /// LoadServingModel + FromData in one step.
  static StatusOr<ServingModel> Load(const std::string& path);

  /// Potential outcomes for each row of `x` -> (n x 2) matrix, column
  /// 0 = y0_hat, column 1 = y1_hat; binary outcomes are probabilities.
  /// Bitwise identical to the exporting estimator's
  /// PredictPotentialOutcomes on the same rows, for any batching of the
  /// rows. Thread-safe without synchronization.
  Matrix ScoreOutcomes(const Matrix& x) const;

  /// Scores a batch and stamps it with the detector's population-level
  /// shift verdict (OodLevelDetector::LevelOf over all of `x`).
  BatchScore Score(const Matrix& x, const ScoreOptions& options) const;
  /// Score with default options.
  BatchScore Score(const Matrix& x) const;

  /// Scores a batch with PER-ROW OOD stamping: outcomes are computed
  /// batch-wise (batching-invariant), but each row's OOD level is
  /// RowOodLevel of that row alone, so the stamp is independent of
  /// which other rows happened to share the batch — the invariant the
  /// micro-batcher's determinism contract needs.
  std::vector<RowScore> ScoreRows(const Matrix& x,
                                  const ScoreOptions& options) const;
  /// ScoreRows with default options.
  std::vector<RowScore> ScoreRows(const Matrix& x) const;

  /// Row-level OOD level in [0, 1] of a single request row (1 x d):
  /// the detector's distance of the one-row population to the source,
  /// renormalized against a null of single-source-row distances
  /// calibrated at load time (a one-row "population" sits at a
  /// point-mass distance from the source even in distribution, so the
  /// batch-level null would flag everything). CHECK-fails without a
  /// detector.
  double RowOodLevel(const Matrix& row) const;

  /// Population-level OOD level of `x` (OodLevelDetector::LevelOf).
  /// CHECK-fails without a detector.
  double OodLevelOf(const Matrix& x) const;

  /// True when a fitted OOD detector was exported with the model.
  bool has_ood_detector() const { return detector_.has_value(); }

  /// Covariate dimension every request row must have.
  int64_t input_dim() const { return meta_.spec.input_dim; }

  /// The decoded meta section (method name, config, ISA pin, ...).
  const ServingMeta& meta() const { return meta_; }

 private:
  explicit ServingModel(InferenceNet net) : net_(std::move(net)) {}

  ServingMeta meta_;
  /// The forward, shared with HteEstimator and ShardedTrainer.
  InferenceNet net_;
  std::optional<OodLevelDetector> detector_;
  double row_null_q95_ = 0.0;
  double row_null_scale_ = 1.0;
};

}  // namespace serve
}  // namespace sbrl

#endif  // SBRL_SERVE_SERVING_MODEL_H_
