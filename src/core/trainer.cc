#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>

#include "common/cpu.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/hap.h"
#include "stats/rff.h"

namespace sbrl {

namespace {

// Divergence-recovery policy of the training-health monitor (see
// SbrlConfig::recovery_max_retries).
//
// Multiplicative learning-rate shrink applied on every rollback;
// compounds across rollbacks and applies to both the network and the
// sample-weight learning rates.
constexpr double kRecoveryLrBackoff = 0.5;
// Loss-explosion threshold: the run is divergent when |train loss|
// exceeds this factor times (|first finite train loss| + 1).
constexpr double kRecoveryExplosionFactor = 1e6;
// Iterations between in-memory last-good snapshot captures. A rollback
// replays at most this many iterations; the cadence keeps the snapshot
// copy inside the "/health" share of the Table VI bench (budgeted at
// under 1% of fit time).
constexpr int64_t kRecoverySnapshotEvery = 10;

// The fixed network update (see NetworkUpdate): R_l2 decay on the
// head weights and lr(t) = base * rate^(t / steps).
constexpr double kHeadL2 = 1e-4;
constexpr double kLrDecayRate = 0.97;
constexpr int64_t kLrDecaySteps = 100;

// Every backbone parameter outside `decay`, in CollectParams order.
std::vector<Param*> PlainParams(Backbone& backbone,
                                const std::vector<Param*>& decay) {
  std::vector<Param*> all;
  backbone.CollectParams(&all);
  const std::unordered_set<Param*> skip(decay.begin(), decay.end());
  std::vector<Param*> plain;
  for (Param* p : all) {
    if (skip.find(p) == skip.end()) plain.push_back(p);
  }
  return plain;
}

}  // namespace

Var FactualLosses(Var y0, Var y1, const std::vector<int>& t,
                  const Matrix& y, bool binary) {
  Var pred = ops::SelectRowsByTreatment(y1, y0, t);
  if (binary) {
    return ops::SigmoidCrossEntropyWithLogits(pred, y);
  }
  Var target = pred.tape()->Constant(y);
  return ops::Square(ops::Sub(pred, target));
}

NetworkUpdate::NetworkUpdate(Backbone& backbone, double base_lr)
    : decay(backbone.DecayParams(), kHeadL2),
      plain(PlainParams(backbone, decay.params())),
      schedule(base_lr, kLrDecayRate, kLrDecaySteps) {}

double NetworkUpdate::Step(int64_t iter) {
  const double lr = schedule.LearningRate(iter);
  return decay.Step(lr) + plain.Step(lr);
}

SbrlTrainer::SbrlTrainer(const EstimatorConfig& config, Backbone* backbone,
                         bool binary_outcome, MatrixPool* tape_pool)
    : config_(config),
      backbone_(backbone),
      binary_outcome_(binary_outcome),
      tape_pool_(tape_pool != nullptr ? tape_pool : &owned_tape_pool_) {
  SBRL_CHECK(backbone != nullptr);
  // Paper Table IV footnote: TARNet has no balancing term, so its SBRL
  // variants drop L_B (alpha = 0).
  effective_alpha_br_ =
      config.backbone == BackboneKind::kTarnet ? 0.0 : config.sbrl.alpha_br;
}

double SbrlTrainer::EvalFactualLoss(const CausalDataset& data) {
  Tape tape(tape_pool_);
  ParamBinder binder(&tape);
  Var w_uniform = tape.Constant(Matrix::Ones(data.n(), 1));
  BackboneForward fwd = backbone_->Forward(binder, data.x, data.t,
                                           w_uniform, /*training=*/false);
  Var losses = FactualLosses(fwd.y0, fwd.y1, data.t, data.y,
                             binary_outcome_);
  return ops::MeanAll(losses).value().scalar();
}

Status SbrlTrainer::Train(const CausalDataset& train,
                          const CausalDataset* valid, TrainDiagnostics* diag,
                          Matrix* out_weights) {
  SBRL_CHECK(diag != nullptr && out_weights != nullptr);
  Timer timer;
  // Pin the kernel ISA for this run on THIS THREAD (SBRL_ISA env >
  // config > auto, clamped to the host; see common/cpu.h) and record
  // what actually ran. Thread-scoped rather than process-global so
  // concurrent runs with different configs neither race nor leak their
  // level into each other; ParallelFor propagates the pin to any pool
  // workers this run fans out to.
  ScopedThreadIsa isa_scope(config_.sbrl.isa);
  diag->isa = IsaName(isa_scope.resolved());
  const double cos_seconds_at_start = CosSweepSecondsThisThread();
  const int64_t n = train.n();
  const bool learn_weights =
      config_.framework != FrameworkKind::kVanilla;
  const bool recovery_on = config_.sbrl.recovery_max_retries > 0;

  SampleWeights weights(n, kSampleWeightFloor);

  std::vector<Param*> params;
  backbone_->CollectParams(&params);
  NetworkUpdate update(*backbone_, config_.train.lr);
  AdamOptimizer opt_w({&weights.param()});

  // Everything a checkpoint must capture beyond `params`: the learned
  // sample weights (a Param like any other).
  std::vector<Param*> ckpt_params = params;
  ckpt_params.push_back(&weights.param());

  Rng hsic_rng(config_.train.seed ^ 0x9e3779b97f4a7c15ULL);

  double best_valid = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_snapshot;
  int64_t bad_evals = 0;
  bool stopped_early = false;
  double loss_anchor = -1.0;  // |first finite train loss| + 1 once seen
  int64_t rollbacks = 0;

  // Snapshots the complete training state at an iteration boundary;
  // `next_iteration` is the first iteration a restore should execute.
  const auto capture = [&](int64_t next_iteration) {
    TrainingCheckpoint ckpt;
    ckpt.next_iteration = next_iteration;
    ckpt.opt_decay_steps = update.decay.step_count();
    ckpt.opt_plain_steps = update.plain.step_count();
    ckpt.opt_w_steps = opt_w.step_count();
    ckpt.best_valid = best_valid;
    ckpt.bad_evals = bad_evals;
    ckpt.best_iteration = diag->best_iteration;
    ckpt.first_bad_iteration = diag->first_bad_iteration;
    ckpt.rollbacks = rollbacks;
    ckpt.lr_scale = update.schedule.scale();
    ckpt.loss_anchor = loss_anchor;
    std::ostringstream rng_out;
    rng_out << hsic_rng.engine();
    ckpt.rng_state = rng_out.str();
    ckpt.params.reserve(ckpt_params.size());
    for (Param* p : ckpt_params) {
      ckpt.params.push_back({p->name, p->value, p->adam_m, p->adam_v});
    }
    ckpt.best_snapshot = best_snapshot;
    ckpt.train_loss = diag->train_loss;
    ckpt.valid_loss = diag->valid_loss;
    ckpt.weight_loss = diag->weight_loss;
    return ckpt;
  };

  // Applies a snapshot back onto the live training state. Structural
  // mismatches (a checkpoint from a different model or config) return
  // FailedPrecondition; an in-memory rollback snapshot can never
  // mismatch. Deliberately does NOT touch the recovery counters
  // (`rollbacks`, diag->first_bad_iteration): a rollback must not reset
  // its own budget. Disk resume restores those explicitly.
  const auto apply = [&](const TrainingCheckpoint& ckpt) -> Status {
    if (ckpt.params.size() != ckpt_params.size()) {
      return Status::FailedPrecondition(
          "checkpoint has " + std::to_string(ckpt.params.size()) +
          " params, model has " + std::to_string(ckpt_params.size()));
    }
    for (size_t i = 0; i < ckpt_params.size(); ++i) {
      const ParamCheckpoint& pc = ckpt.params[i];
      Param* p = ckpt_params[i];
      if (pc.name != p->name || pc.value.rows() != p->value.rows() ||
          pc.value.cols() != p->value.cols()) {
        return Status::FailedPrecondition(
            "checkpoint param \"" + pc.name + "\" (" +
            std::to_string(pc.value.rows()) + "x" +
            std::to_string(pc.value.cols()) +
            ") does not match model param \"" + p->name + "\" (" +
            std::to_string(p->value.rows()) + "x" +
            std::to_string(p->value.cols()) + ")");
      }
      p->value = pc.value;
      p->adam_m = pc.adam_m;
      p->adam_v = pc.adam_v;
      p->grad.Fill(0.0);
    }
    if (ckpt.next_iteration < 0 || ckpt.opt_decay_steps < 0 ||
        ckpt.opt_plain_steps < 0 || ckpt.opt_w_steps < 0 ||
        ckpt.bad_evals < 0 || !(ckpt.lr_scale > 0.0)) {
      return Status::FailedPrecondition(
          "checkpoint counters out of range");
    }
    if (!ckpt.best_snapshot.empty() &&
        ckpt.best_snapshot.size() != params.size()) {
      return Status::FailedPrecondition(
          "checkpoint best snapshot has " +
          std::to_string(ckpt.best_snapshot.size()) +
          " matrices, model has " + std::to_string(params.size()) +
          " params");
    }
    update.decay.set_step_count(ckpt.opt_decay_steps);
    update.plain.set_step_count(ckpt.opt_plain_steps);
    opt_w.set_step_count(ckpt.opt_w_steps);
    update.schedule.set_scale(ckpt.lr_scale);
    std::istringstream rng_in(ckpt.rng_state);
    rng_in >> hsic_rng.engine();
    if (rng_in.fail()) {
      return Status::FailedPrecondition("unreadable checkpoint rng state");
    }
    best_valid = ckpt.best_valid;
    bad_evals = ckpt.bad_evals;
    diag->best_iteration = ckpt.best_iteration;
    loss_anchor = ckpt.loss_anchor;
    best_snapshot = ckpt.best_snapshot;
    diag->train_loss = ckpt.train_loss;
    diag->valid_loss = ckpt.valid_loss;
    diag->weight_loss = ckpt.weight_loss;
    return Status::OK();
  };

  // ----- Resume from disk (TrainConfig::resume). A missing file is a
  // fresh start; a corrupt or mismatched file is an error (silently
  // retraining from scratch would mask data loss). -----
  int64_t start_iter = 0;
  if (config_.train.resume) {
    StatusOr<TrainingCheckpoint> loaded =
        LoadCheckpoint(config_.train.checkpoint_path);
    if (loaded.ok()) {
      SBRL_RETURN_IF_ERROR(apply(loaded.value()));
      rollbacks = loaded.value().rollbacks;
      diag->first_bad_iteration = loaded.value().first_bad_iteration;
      start_iter = loaded.value().next_iteration;
      diag->resumed_from_iteration = start_iter;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  // The rollback target: the last iteration boundary the health monitor
  // saw in a good state. Seeded before the loop so a fault at the very
  // first iteration still has a restore point.
  TrainingCheckpoint last_good;
  if (recovery_on) {
    Timer health_timer;
    last_good = capture(start_iter);
    diag->health_seconds += health_timer.ElapsedSeconds();
  }

  // Saves a periodic/final checkpoint; save failures are non-fatal (the
  // run warns, counts them, and keeps training on the live state).
  const auto save_to_disk = [&](const TrainingCheckpoint& ckpt) {
    Timer ckpt_timer;
    const Status saved = SaveCheckpoint(ckpt, config_.train.checkpoint_path);
    if (!saved.ok()) {
      ++diag->checkpoint_failures;
      SBRL_LOG(Warning) << "checkpoint save failed (continuing): "
                        << saved.ToString();
    }
    diag->checkpoint_seconds += ckpt_timer.ElapsedSeconds();
  };

  int64_t iter = start_iter;
  while (iter < config_.train.iterations) {
    // ----- Step A (Algorithm 1 lines 4-5): network parameters. -----
    Timer net_timer;
    double weight_loss_value = 0.0;
    Matrix w_norm = weights.NormalizedToMeanOne();
    Tape tape(tape_pool_);
    ParamBinder binder(&tape);
    Var w_const = tape.Constant(w_norm);
    BackboneForward fwd = backbone_->Forward(binder, train.x, train.t,
                                             w_const, /*training=*/true);
    Var losses = FactualLosses(fwd.y0, fwd.y1, train.t, train.y,
                               binary_outcome_);
    Var weighted = ops::MeanAll(ops::Mul(losses, w_const));
    Var loss = ops::Add(weighted, fwd.aux_loss);
    tape.Backward(loss);
    binder.FlushGrads();
    if (FaultPoint("trainer/nan_grad") && !params.empty()) {
      params[0]->grad[0] = std::numeric_limits<double>::quiet_NaN();
    }
    // The Step digests fuse the health monitor's non-finite scan into
    // the optimizer's own pass over the gradients (no extra sweep).
    double grad_digest = update.Step(iter);
    double train_loss_value = loss.value().scalar();
    if (FaultPoint("trainer/poison_loss")) {
      train_loss_value = std::numeric_limits<double>::quiet_NaN();
    }
    diag->net_step_seconds += net_timer.ElapsedSeconds();

    // ----- Step B (Algorithm 1 lines 6-7): sample weights. -----
    if (learn_weights) {
      Timer weight_timer;
      WeightLossInputs inputs;
      inputs.z_p = fwd.z_p.value();
      inputs.z_r = fwd.rep.value();
      inputs.z_o.reserve(fwd.z_other.size());
      for (const Var& z : fwd.z_other) inputs.z_o.push_back(z.value());
      inputs.t = train.t;

      Tape w_tape(tape_pool_);
      ParamBinder w_binder(&w_tape);
      Var w_var = w_binder.Bind(weights.param());
      Var w_loss = BuildWeightLoss(w_var, inputs, config_.sbrl,
                                   config_.framework, effective_alpha_br_,
                                   hsic_rng);
      weight_loss_value = w_loss.value().scalar();
      w_tape.Backward(w_loss);
      w_binder.FlushGrads();
      grad_digest += opt_w.Step(config_.sbrl.lr_w);
      weights.Project();
      diag->weight_step_seconds += weight_timer.ElapsedSeconds();
    }

    // ----- Training-health monitor: non-finite and loss-explosion
    // guardrails over the signals this iteration already produced. -----
    Timer health_timer;
    bool healthy = std::isfinite(grad_digest) &&
                   std::isfinite(train_loss_value) &&
                   std::isfinite(weight_loss_value);
    if (healthy && loss_anchor >= 0.0 &&
        std::abs(train_loss_value) >
            loss_anchor * kRecoveryExplosionFactor) {
      healthy = false;
    }
    if (healthy && loss_anchor < 0.0) {
      loss_anchor = std::abs(train_loss_value) + 1.0;
    }
    diag->health_seconds += health_timer.ElapsedSeconds();
    if (!healthy) {
      if (diag->first_bad_iteration < 0) diag->first_bad_iteration = iter;
      const std::string what =
          "unhealthy training state at iteration " + std::to_string(iter) +
          " (grad digest " + std::to_string(grad_digest) + ", train loss " +
          std::to_string(train_loss_value) + ", weight loss " +
          std::to_string(weight_loss_value) + ")";
      if (!recovery_on) {
        return Status::Internal(what + "; recovery is off");
      }
      if (rollbacks >= config_.sbrl.recovery_max_retries) {
        return Status::Internal(
            what + "; recovery budget exhausted after " +
            std::to_string(rollbacks) + " rollback(s), first bad iteration " +
            std::to_string(diag->first_bad_iteration));
      }
      ++rollbacks;
      diag->recovery_rollbacks = rollbacks;
      // Shrink from the CURRENT scale so repeated rollbacks to the same
      // snapshot keep compounding the backoff.
      const double shrunk_scale =
          update.schedule.scale() * kRecoveryLrBackoff;
      const Status restored = apply(last_good);
      SBRL_CHECK(restored.ok()) << restored.ToString();
      update.schedule.set_scale(shrunk_scale);
      SBRL_LOG(Warning) << what << "; rolling back to iteration "
                        << last_good.next_iteration << " with lr scale "
                        << shrunk_scale << " (rollback " << rollbacks << "/"
                        << config_.sbrl.recovery_max_retries << ")";
      iter = last_good.next_iteration;
      continue;
    }

    // ----- Early stopping / diagnostics. -----
    const bool eval_now =
        config_.train.eval_every > 0 &&
        ((iter + 1) % config_.train.eval_every == 0 ||
         iter + 1 == config_.train.iterations);
    if (eval_now) {
      diag->train_loss.push_back(train_loss_value);
      diag->weight_loss.push_back(weight_loss_value);
      if (valid != nullptr) {
        double v = EvalFactualLoss(*valid);
        if (FaultPoint("trainer/poison_valid")) {
          v = std::numeric_limits<double>::quiet_NaN();
        }
        diag->valid_loss.push_back(v);
        if (std::isfinite(v) && v < best_valid - 1e-9) {
          best_valid = v;
          diag->best_iteration = iter;
          best_snapshot.clear();
          best_snapshot.reserve(params.size());
          for (Param* p : params) best_snapshot.push_back(p->value);
          bad_evals = 0;
        } else {
          // NaN-aware: a non-finite validation loss compares false
          // against every threshold, so it must land here as a
          // non-improving evaluation — it can consume patience but can
          // never freeze or replace the tracked best parameters.
          ++bad_evals;
          if (config_.train.patience > 0 &&
              bad_evals >= config_.train.patience) {
            stopped_early = true;
          }
        }
      }
    }
    if (stopped_early) break;

    // The iteration ended healthy: advance the rollback target on the
    // snapshot cadence (a rollback replays at most that many
    // iterations — capturing every iteration would put the full-state
    // copy on the critical path and blow the <1% health budget), then
    // persist it on the periodic checkpoint cadence.
    const bool save_now =
        config_.train.checkpoint_every > 0 &&
        (iter + 1) % config_.train.checkpoint_every == 0;
    const bool snapshot_now =
        recovery_on &&
        (save_now ||
         (iter + 1) % kRecoverySnapshotEvery == 0);
    if (snapshot_now) {
      Timer capture_timer;
      last_good = capture(iter + 1);
      diag->health_seconds += capture_timer.ElapsedSeconds();
      if (save_now) save_to_disk(last_good);
    } else if (save_now) {
      save_to_disk(capture(iter + 1));
    }
    ++iter;
  }

  // Final checkpoint BEFORE the best-parameter restore: a resumed run
  // re-enters here with the loop already complete and performs the
  // identical restore below, so kill points after training still
  // round-trip bit-for-bit.
  if (config_.train.checkpoint_every > 0) {
    save_to_disk(capture(config_.train.iterations));
  }

  // Restore the best-validation parameters (paper: "report the
  // best-evaluated iterate with early stopping").
  if (!best_snapshot.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_snapshot[i];
    }
  }
  diag->recovery_rollbacks = rollbacks;
  *out_weights = weights.raw();
  diag->train_seconds = timer.ElapsedSeconds();
  diag->rff_cos_seconds = CosSweepSecondsThisThread() - cos_seconds_at_start;
  return Status::OK();
}

}  // namespace sbrl
