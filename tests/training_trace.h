// Short fixed-seed training runs shared by the trace suites:
// golden_trace_test compares runs with each other (run vs run, fused vs
// reference, across thread counts) and training_lock_test pins them in
// absolute terms by hash. Both train on the same 600 x 10 dataset for 6
// iterations, recording the loss trace at every iteration.

#ifndef SBRL_TESTS_TRAINING_TRACE_H_
#define SBRL_TESTS_TRAINING_TRACE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/backbone.h"
#include "core/config.h"
#include "core/dercfr.h"
#include "core/trainer.h"
#include "data/causal_dataset.h"
#include "tensor/random.h"

namespace sbrl {
namespace trace {

// Large enough that the first-layer matmul (n * d * rep_width flops)
// crosses the ~64K-flop serial cutoff, so the thread-count-invariance
// assertions actually exercise the parallel kernels.
constexpr int64_t kSamples = 600;
constexpr int64_t kDim = 10;
constexpr int64_t kIterations = 6;

/// Everything one training run pins down: the per-iteration loss trace
/// (eval_every = 1), the validation trail when a validation set was
/// given, and the final parameter / weight values.
struct Trace {
  std::vector<double> train_loss;
  std::vector<double> weight_loss;
  std::vector<double> valid_loss;
  std::vector<double> params;
  std::vector<double> weights;
  std::string isa;  // the level the trainer resolved
};

inline CausalDataset MakeDataset() {
  Rng rng(2024);
  CausalDataset data;
  data.x = rng.Randn(kSamples, kDim);
  data.t.resize(static_cast<size_t>(kSamples));
  data.y = Matrix(kSamples, 1);
  data.mu0 = Matrix(kSamples, 1);
  data.mu1 = Matrix(kSamples, 1);
  data.binary_outcome = false;
  for (int64_t i = 0; i < kSamples; ++i) {
    // Both arms guaranteed non-empty by the alternating fallback.
    const bool treated = i < 2 ? (i == 0) : rng.Bernoulli(0.45);
    data.t[static_cast<size_t>(i)] = treated ? 1 : 0;
    const double base = 0.8 * data.x(i, 0) - 0.5 * data.x(i, 1);
    const double effect = 1.0 + 0.3 * data.x(i, 2);
    data.mu0(i, 0) = base;
    data.mu1(i, 0) = base + effect;
    data.y(i, 0) = (treated ? data.mu1(i, 0) : data.mu0(i, 0)) +
                   rng.Normal(0.0, 0.1);
  }
  return data;
}

inline EstimatorConfig SmallConfig() {
  EstimatorConfig config;
  config.backbone = BackboneKind::kCfr;
  config.framework = FrameworkKind::kSbrlHap;
  config.network.rep_layers = 2;
  config.network.rep_width = 16;
  config.network.head_layers = 2;
  config.network.head_width = 8;
  config.train.iterations = kIterations;
  config.train.eval_every = 1;  // record the loss at every iteration
  config.train.seed = 7;
  config.sbrl.hsic_pair_budget = 12;
  return config;
}

/// Trains `backbone` on `data` (validating on `valid` when non-null)
/// and records its trace.
inline Trace TraceOf(const EstimatorConfig& config, Backbone* backbone,
                     const CausalDataset& data,
                     const CausalDataset* valid = nullptr) {
  SbrlTrainer trainer(config, backbone, /*binary_outcome=*/false);
  TrainDiagnostics diag;
  Matrix weights;
  const Status status = trainer.Train(data, valid, &diag, &weights);
  SBRL_CHECK(status.ok()) << status.ToString();
  Trace trace;
  trace.train_loss = diag.train_loss;
  trace.weight_loss = diag.weight_loss;
  trace.valid_loss = diag.valid_loss;
  trace.isa = diag.isa;
  std::vector<Param*> params;
  backbone->CollectParams(&params);
  for (const Param* p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      trace.params.push_back(p->value[i]);
    }
  }
  for (int64_t i = 0; i < weights.size(); ++i) {
    trace.weights.push_back(weights[i]);
  }
  return trace;
}

/// The production trace: the backbone the estimator would build,
/// trained on `train` (the full MakeDataset() when null).
inline Trace RunTrace(const EstimatorConfig& config,
                      const CausalDataset* train = nullptr,
                      const CausalDataset* valid = nullptr) {
  const CausalDataset full = train == nullptr ? MakeDataset() : *train;
  Rng rng(config.train.seed);
  std::unique_ptr<Backbone> backbone =
      CreateBackbone(config, full.dim(), rng);
  if (config.backbone == BackboneKind::kDerCfr) {
    static_cast<DerCfrBackbone*>(backbone.get())->SetOutcomes(full.y);
  }
  return TraceOf(config, backbone.get(), full, valid);
}

}  // namespace trace
}  // namespace sbrl

#endif  // SBRL_TESTS_TRAINING_TRACE_H_
