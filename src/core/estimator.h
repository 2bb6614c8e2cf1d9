#ifndef SBRL_CORE_ESTIMATOR_H_
#define SBRL_CORE_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "common/statusor.h"
#include "core/backbone.h"
#include "core/inference_net.h"
#include "core/trainer.h"
#include "data/causal_dataset.h"

namespace sbrl {

/// The library's public entry point: a heterogeneous-treatment-effect
/// estimator combining a backbone (TARNet / CFR / DeR-CFR) with a
/// stable-learning framework (vanilla / SBRL / SBRL-HAP).
///
/// Usage:
///   EstimatorConfig config;
///   config.backbone = BackboneKind::kCfr;
///   config.framework = FrameworkKind::kSbrlHap;
///   auto estimator = HteEstimator::Create(config);
///   if (!estimator.ok()) { ... }
///   estimator->Fit(train, &valid);
///   std::vector<double> ite = estimator->PredictIte(test.x);
///   double ate = estimator->PredictAte(test.x);
class HteEstimator {
 public:
  /// Validates `config` and constructs an unfitted estimator.
  static StatusOr<HteEstimator> Create(const EstimatorConfig& config);

  /// Trains on `train` with optional validation-based early stopping.
  /// Binary vs continuous outcome handling follows
  /// `train.binary_outcome`; continuous outcomes are standardized
  /// internally and de-standardized at prediction time. `tape_pool`,
  /// when non-null, is a session-leased buffer arena for the training
  /// tapes (ExperimentSession::RunLease::tape_pool) — results are
  /// bitwise identical with or without one.
  Status Fit(const CausalDataset& train, const CausalDataset* valid = nullptr,
             MatrixPool* tape_pool = nullptr);

  /// Predicted potential outcomes for each row of `x` -> (n x 2)
  /// matrix, column 0 = y0_hat, column 1 = y1_hat. Binary outcomes are
  /// returned as probabilities. Runs the tape-free InferenceNet over
  /// the fitted tensors, pinned to the configured ISA choice.
  Matrix PredictPotentialOutcomes(const Matrix& x) const;

  /// Predicted individual treatment effects y1_hat - y0_hat.
  std::vector<double> PredictIte(const Matrix& x) const;

  /// Predicted average treatment effect over the rows of `x`.
  double PredictAte(const Matrix& x) const;

  /// The balanced representation Z_r of `x` (for decorrelation
  /// diagnostics; paper Fig. 5).
  Matrix RepresentationOf(const Matrix& x) const;

  /// Learned sample weights (uniform for vanilla frameworks).
  const Matrix& sample_weights() const { return weights_; }

  /// Training record of the last Fit() (loss curves, timing shares).
  const TrainDiagnostics& diagnostics() const { return diag_; }
  /// The validated configuration this estimator was created with.
  const EstimatorConfig& config() const { return config_; }
  /// True once Fit() has succeeded; prediction requires it.
  bool fitted() const { return fitted_; }

  /// The fitted backbone, for export plumbing (serving-model capture of
  /// parameters); null before Fit(). Non-const
  /// because the parameter-collection interface is non-const.
  Backbone* fitted_backbone() { return backbone_.get(); }
  /// What prediction needs beyond the fitted tensors: architecture,
  /// input dimension, and the outcome scale of the last Fit() (binary
  /// probabilities, or y_mean / y_std de-standardization).
  const InferenceSpec& inference_spec() const { return spec_; }

 private:
  explicit HteEstimator(const EstimatorConfig& config) : config_(config) {}

  /// The fitted network as an InferenceNet; CHECK-fails before Fit.
  InferenceNet Net() const;

  EstimatorConfig config_;
  std::shared_ptr<Backbone> backbone_;  // shared: keeps estimator movable
  Matrix weights_;
  TrainDiagnostics diag_;
  bool fitted_ = false;
  InferenceSpec spec_;
};

}  // namespace sbrl

#endif  // SBRL_CORE_ESTIMATOR_H_
