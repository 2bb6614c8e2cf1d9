// Golden-trace lockdown of the training hot path. A fixed-seed short
// training run records a per-iteration loss trace plus a final
// parameter / sample-weight digest; the suite then asserts
//
//   1. the production trace reproduces bitwise run over run and across
//      worker-thread counts, for CFR and DeR-CFR (the determinism
//      contract of docs/ARCHITECTURE.md, pinned at whole-training
//      granularity),
//   2. CFR's production trace — fused layer nodes, arm-split heads — is
//      bitwise identical to the per-primitive, full-batch reference of
//      tests/reference_net.h (the fused ops run the same kernels in the
//      same order), and
//   3. a run killed at an iteration boundary and resumed from its
//      checkpoint is bitwise identical to the uninterrupted run.
//
// The stability literature the paper builds on (estimator stability for
// HTE) is the motivation: a silent gradient perturbation in the network
// step would surface here as a trace mismatch long before it is visible
// in PEHE.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/backbone.h"
#include "core/trainer.h"
#include "data/causal_dataset.h"
#include "reference_net.h"
#include "tensor/random.h"
#include "training_trace.h"

namespace sbrl {
namespace {

using trace::kIterations;
using trace::kSamples;
using trace::MakeDataset;
using trace::RunTrace;
using trace::SmallConfig;
using trace::Trace;
using trace::TraceOf;

/// The reference trace of a CFR config: the same initial parameters
/// trained through the per-primitive, full-batch ReferenceCfr.
Trace RunReferenceTrace(const EstimatorConfig& config) {
  SBRL_CHECK(config.backbone == BackboneKind::kCfr);
  const CausalDataset data = MakeDataset();
  Rng rng(config.train.seed);
  reference::ReferenceCfr backbone(config, data.dim(), rng);
  return TraceOf(config, &backbone, data);
}

void ExpectTracesBitwiseEqual(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.train_loss.size(), b.train_loss.size());
  for (size_t i = 0; i < a.train_loss.size(); ++i) {
    EXPECT_EQ(a.train_loss[i], b.train_loss[i]) << "loss at iteration " << i;
    EXPECT_EQ(a.weight_loss[i], b.weight_loss[i])
        << "weight loss at iteration " << i;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i], b.params[i]) << "parameter element " << i;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "sample weight " << i;
  }
}

/// Runs one production trace under `workers` background threads,
/// restoring the process-wide pool to its previous worker count
/// afterwards.
Trace TraceWithWorkers(const EstimatorConfig& config, int workers) {
  const int restore_workers = ThreadPool::GlobalParallelism() - 1;
  ThreadPool::ResetGlobalForTest(workers);
  Trace trace = RunTrace(config);
  ThreadPool::ResetGlobalForTest(restore_workers);
  return trace;
}

TEST(GoldenTraceTest, TraceIsDeterministic) {
  const EstimatorConfig config = SmallConfig();
  const Trace first = RunTrace(config);
  const Trace second = RunTrace(config);
  ASSERT_EQ(first.train_loss.size(), static_cast<size_t>(kIterations));
  EXPECT_TRUE(std::isfinite(first.train_loss.back()));
  ExpectTracesBitwiseEqual(first, second);
}

TEST(GoldenTraceTest, TraceBitwiseStableAcrossThreadCounts) {
  const EstimatorConfig config = SmallConfig();
  const Trace serial = TraceWithWorkers(config, 0);
  const Trace threaded = TraceWithWorkers(config, 2);
  ExpectTracesBitwiseEqual(serial, threaded);
}

TEST(GoldenTraceTest, FusedMatchesReferenceBitwise) {
  // The fused ops run the same kernels in the same order as the
  // reference composition, and the arm-split heads leave
  // exact zeros where the full-batch heads compute discarded rows: the
  // whole training trajectory — losses, learned weights, final
  // parameters — is bit-identical.
  const EstimatorConfig config = SmallConfig();
  const Trace reference = RunReferenceTrace(config);
  const Trace fused = RunTrace(config);
  ExpectTracesBitwiseEqual(reference, fused);
}

TEST(GoldenTraceTest, DerCfrTraceIsDeterministicAcrossRunsAndThreadCounts) {
  // DeR-CFR routes three representation networks and the arm-split
  // heads through the fused layers; its trace must reproduce bit for
  // bit run over run and with or without background workers.
  EstimatorConfig config = SmallConfig();
  config.backbone = BackboneKind::kDerCfr;
  const Trace first = TraceWithWorkers(config, 0);
  const Trace second = TraceWithWorkers(config, 0);
  const Trace threaded = TraceWithWorkers(config, 2);
  ASSERT_EQ(first.train_loss.size(), static_cast<size_t>(kIterations));
  EXPECT_TRUE(std::isfinite(first.train_loss.back()));
  ExpectTracesBitwiseEqual(first, second);
  ExpectTracesBitwiseEqual(first, threaded);
}

/// One full training observation for the checkpoint/resume lockdown:
/// the standard trace plus the validation trail and the diagnostics the
/// recovery engine maintains.
struct FullTrace {
  Trace trace;
  std::vector<double> valid_loss;
  int64_t best_iteration = -1;
  int64_t resumed_from_iteration = -1;
};

FullTrace RunFullTrace(const EstimatorConfig& config,
                       const CausalDataset& train,
                       const CausalDataset* valid) {
  Rng rng(config.train.seed);
  std::unique_ptr<Backbone> backbone =
      CreateBackbone(config, train.dim(), rng);
  SbrlTrainer trainer(config, backbone.get(), /*binary_outcome=*/false);
  TrainDiagnostics diag;
  Matrix weights;
  const Status status = trainer.Train(train, valid, &diag, &weights);
  SBRL_CHECK(status.ok()) << status.ToString();
  FullTrace full;
  full.trace.train_loss = diag.train_loss;
  full.trace.weight_loss = diag.weight_loss;
  std::vector<Param*> params;
  backbone->CollectParams(&params);
  for (const Param* p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      full.trace.params.push_back(p->value[i]);
    }
  }
  for (int64_t i = 0; i < weights.size(); ++i) {
    full.trace.weights.push_back(weights[i]);
  }
  full.valid_loss = diag.valid_loss;
  full.best_iteration = diag.best_iteration;
  full.resumed_from_iteration = diag.resumed_from_iteration;
  return full;
}

TEST(CheckpointResumeTest, KillAndResumeIsBitwiseIdentical) {
  // The tentpole contract: a run killed at an iteration boundary and
  // resumed from its checkpoint is indistinguishable — bit for bit —
  // from the run that was never interrupted. A validation set
  // exercises the early-stopping state.
  const CausalDataset data = MakeDataset();
  std::vector<int64_t> valid_rows, train_rows;
  for (int64_t i = 0; i < 150; ++i) valid_rows.push_back(i);
  for (int64_t i = 150; i < kSamples; ++i) train_rows.push_back(i);
  const CausalDataset valid = data.Subset(valid_rows);
  const CausalDataset train = data.Subset(train_rows);

  const EstimatorConfig base = SmallConfig();
  const FullTrace uninterrupted = RunFullTrace(base, train, &valid);

  const std::string path =
      ::testing::TempDir() + "/golden_resume_" + std::to_string(::getpid()) +
      ".ckpt";
  std::remove(path.c_str());

  // "Kill" at iteration 3: train only the first half, checkpointing.
  constexpr int64_t kKillAt = 3;
  EstimatorConfig part1 = base;
  part1.train.iterations = kKillAt;
  part1.train.checkpoint_every = kKillAt;
  part1.train.checkpoint_path = path;
  RunFullTrace(part1, train, &valid);

  // Resume a FRESH estimator from the checkpoint and finish the run.
  EstimatorConfig part2 = base;
  part2.train.checkpoint_path = path;
  part2.train.resume = true;
  const FullTrace resumed = RunFullTrace(part2, train, &valid);

  EXPECT_EQ(resumed.resumed_from_iteration, kKillAt);
  ExpectTracesBitwiseEqual(uninterrupted.trace, resumed.trace);
  ASSERT_EQ(uninterrupted.valid_loss.size(), resumed.valid_loss.size());
  for (size_t i = 0; i < uninterrupted.valid_loss.size(); ++i) {
    EXPECT_EQ(uninterrupted.valid_loss[i], resumed.valid_loss[i])
        << "validation loss at evaluation " << i;
  }
  EXPECT_EQ(uninterrupted.best_iteration, resumed.best_iteration);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, ResumeAfterCompletedRunIsIdentity) {
  // A checkpoint saved after the last iteration resumes into a no-op
  // run that still lands on the identical final state.
  const CausalDataset data = MakeDataset();
  const std::string path =
      ::testing::TempDir() + "/golden_resume_done_" +
      std::to_string(::getpid()) + ".ckpt";
  std::remove(path.c_str());
  EstimatorConfig config = SmallConfig();
  config.train.checkpoint_path = path;
  config.train.checkpoint_every = kIterations;
  const FullTrace full = RunFullTrace(config, data, nullptr);
  config.train.resume = true;
  const FullTrace noop = RunFullTrace(config, data, nullptr);
  EXPECT_EQ(noop.resumed_from_iteration, kIterations);
  ExpectTracesBitwiseEqual(full.trace, noop.trace);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, RecoveryEnabledIsBitwiseFreeWhenHealthy) {
  // With no faults injected, the rollback recovery policy (snapshot
  // capture + health digests + the x1.0 learning-rate scale) must be
  // observationally free: bitwise-identical trajectories against
  // recovery off.
  EstimatorConfig off = SmallConfig();
  off.sbrl.recovery_max_retries = 0;
  EstimatorConfig on = SmallConfig();
  ASSERT_GT(on.sbrl.recovery_max_retries, 0);
  const Trace trace_off = RunTrace(off);
  const Trace trace_on = RunTrace(on);
  ExpectTracesBitwiseEqual(trace_off, trace_on);
}

}  // namespace
}  // namespace sbrl
