#ifndef SBRL_CORE_TRAINER_H_
#define SBRL_CORE_TRAINER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/backbone.h"
#include "core/sample_weights.h"
#include "data/causal_dataset.h"
#include "nn/lr_schedule.h"
#include "nn/optimizer.h"
#include "tensor/pool.h"

namespace sbrl {

/// Observable record of one training run.
struct TrainDiagnostics {
  /// Weighted factual training loss at each evaluation point.
  std::vector<double> train_loss;
  /// Unweighted factual validation loss at each evaluation point
  /// (empty when no validation set was supplied).
  std::vector<double> valid_loss;
  /// Sample-weight objective L_w at each evaluation point.
  std::vector<double> weight_loss;
  /// Iteration whose parameters were kept (early stopping).
  int64_t best_iteration = -1;
  /// Wall-clock seconds spent inside Train().
  double train_seconds = 0.0;
  /// Wall-clock seconds of `train_seconds` spent inside the
  /// sample-weight step (Algorithm 1 step B: building, differentiating
  /// and applying L_w). The weight-loss share of training is
  /// weight_step_seconds / train_seconds; BENCH_table6.json records
  /// both so the batched-HSIC win is tracked across PRs.
  double weight_step_seconds = 0.0;
  /// Wall-clock seconds of `train_seconds` spent inside the network
  /// step (Algorithm 1 step A: recording the head forward chain,
  /// differentiating the weighted factual loss, and applying the Adam
  /// updates). The share the fused layer recording targets (see
  /// nn/mlp.h); BENCH_table6.json records it as
  /// `<method>/net_step` so the network-step cost is tracked over time.
  double net_step_seconds = 0.0;
  /// Wall-clock seconds of `train_seconds` spent inside the RFF cosine
  /// sweeps (the sqrt(2) cos epilogue of every decorrelation-loss
  /// feature evaluation) — the delta of the run thread's
  /// CosSweepSecondsThisThread() across Train(), so overlapping runs of
  /// a concurrent sweep never leak sweep time into each other and
  /// rff_cos_seconds <= train_seconds always holds. A slice of
  /// `weight_step_seconds`; BENCH_table6.json records it as
  /// `<method>/rff_cos` so the cosine share is tracked across PRs.
  double rff_cos_seconds = 0.0;
  /// Resolved kernel ISA level this run trained with ("baseline" /
  /// "avx2" / "avx512") — SbrlConfig::isa after clamping to the host
  /// and applying any SBRL_ISA override (see common/cpu.h). Recorded
  /// so perf numbers are attributable to the kernel set that produced
  /// them; BenchJsonWriter stamps the same value into BENCH_*.json.
  std::string isa;
  /// First iteration at which the training-health monitor observed a
  /// non-finite or exploded signal (-1: the run stayed healthy). With
  /// recovery on, the run may still finish successfully after rolling
  /// back from here.
  int64_t first_bad_iteration = -1;
  /// Divergence rollbacks performed by the recovery policy (each one
  /// restores the last healthy snapshot and shrinks the learning rate
  /// by the trainer's fixed backoff factor, 0.5).
  int64_t recovery_rollbacks = 0;
  /// Iteration this run resumed from when TrainConfig::resume loaded a
  /// checkpoint (-1: the run started fresh).
  int64_t resumed_from_iteration = -1;
  /// Wall-clock seconds of `train_seconds` spent in the per-iteration
  /// health monitor plus (when recovery is on) capturing the in-memory
  /// rollback snapshot. BENCH_table6.json records it as
  /// `<method>/health`; the acceptance target is < 1% of
  /// train_seconds.
  double health_seconds = 0.0;
  /// Wall-clock seconds spent saving periodic disk checkpoints
  /// (0 unless TrainConfig::checkpoint_every > 0).
  double checkpoint_seconds = 0.0;
  /// Periodic checkpoint saves that failed (saves are non-fatal: the
  /// run logs a warning, counts the failure, and keeps training).
  int64_t checkpoint_failures = 0;
};

/// Lower clamp keeping the learned sample weights positive after every
/// update (SampleWeights' projection floor).
constexpr double kSampleWeightFloor = 1e-3;

/// Per-sample factual loss column (n x 1) of the heads' factual arm:
/// sigmoid cross-entropy for binary outcomes, squared error for
/// continuous ones. Shared by SbrlTrainer and the sharded trainer.
Var FactualLosses(Var y0, Var y1, const std::vector<int>& t,
                  const Matrix& y, bool binary);

/// The network step of Algorithm 1, shared by SbrlTrainer and
/// ShardedTrainer: Adam (beta1 = 0.9, beta2 = 0.999, eps = 1e-8) at
/// lr(t) = base_lr * 0.97^(t / 100), with the paper's R_l2 as a
/// decoupled weight decay of 1e-4 on the outcome-head weights
/// (Backbone::DecayParams) only. None of these values is a setting.
struct NetworkUpdate {
  /// Splits `backbone`'s parameters into the two groups below; they
  /// must outlive the update.
  NetworkUpdate(Backbone& backbone, double base_lr);
  /// One Adam step at lr(iter) on both groups; zeroes the gradients
  /// and returns their fused digest (see AdamOptimizer::Step).
  double Step(int64_t iter);

  /// The R_l2 group: Backbone::DecayParams().
  AdamOptimizer decay;
  /// Every other backbone parameter, in CollectParams order.
  AdamOptimizer plain;
  /// The learning-rate curve, including its recovery scale.
  ExponentialDecaySchedule schedule;
};

/// Runs the paper's Algorithm 1: alternating full-batch optimization of
/// the network parameters under the weighted factual loss L^w_Y
/// (Eq. 13) and of the sample weights under L_w (Eq. 11), with
/// exponential learning-rate decay and validation early stopping.
class SbrlTrainer {
 public:
  /// `backbone` must outlive the trainer. `binary_outcome` selects
  /// cross-entropy vs squared-error heads. `tape_pool`, when non-null,
  /// is a session-leased buffer arena the trainer borrows instead of
  /// owning a fresh one (it must outlive the trainer). Borrowed and
  /// owned pools produce bitwise identical training, since
  /// MatrixPool::AcquireZero zeroes recycled buffers.
  SbrlTrainer(const EstimatorConfig& config, Backbone* backbone,
              bool binary_outcome, MatrixPool* tape_pool = nullptr);

  /// Trains on `train`, early-stopping on `valid` (optional). On
  /// success writes the learned sample weights (uniform for vanilla
  /// frameworks) to `out_weights` and fills `diag`.
  Status Train(const CausalDataset& train, const CausalDataset* valid,
               TrainDiagnostics* diag, Matrix* out_weights);

 private:
  double EvalFactualLoss(const CausalDataset& data);

  EstimatorConfig config_;
  Backbone* backbone_;
  bool binary_outcome_;
  double effective_alpha_br_;
  /// Standalone fallback behind `tape_pool_`, used only when no pool
  /// was supplied at construction.
  MatrixPool owned_tape_pool_;
  /// Buffer arena shared by every per-iteration tape: node shapes repeat
  /// across iterations, so steady-state training reuses buffers instead
  /// of reallocating them. Session-leased or owned.
  MatrixPool* tape_pool_;
};

}  // namespace sbrl

#endif  // SBRL_CORE_TRAINER_H_
