#ifndef SBRL_CORE_CHECKPOINT_H_
#define SBRL_CORE_CHECKPOINT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "tensor/matrix.h"

namespace sbrl {

/// One trainable parameter's persistent slice of a checkpoint: the
/// value plus both Adam moment estimates, keyed by the Param's unique
/// name so load-time matching is structural, not positional-only.
struct ParamCheckpoint {
  /// Param::name of the captured parameter.
  std::string name;
  /// Param::value at the capture point.
  Matrix value;
  /// First Adam moment estimate (Param::adam_m).
  Matrix adam_m;
  /// Second Adam moment estimate (Param::adam_v).
  Matrix adam_v;
};

/// Complete snapshot of an SbrlTrainer run at an iteration boundary.
///
/// The contract (locked by tests/golden_trace_test.cc): a run restored
/// from a TrainingCheckpoint continues BIT-FOR-BIT identically to the
/// uninterrupted run that produced it — every training-loop degree of
/// freedom is captured: parameter values, Adam moments and step
/// counts, the learned sample weights (a ParamCheckpoint like any
/// other), the HSIC/RFF rng stream, the
/// learning-rate schedule position (iteration + recovery backoff
/// scale), early-stopping tracking including the best-parameter
/// snapshot, the divergence-recovery counters, and the
/// TrainDiagnostics loss traces recorded so far.
///
/// The same struct serves two transports: the in-memory rollback
/// snapshot of the divergence-recovery policy (never serialized) and
/// the versioned on-disk format of SaveCheckpoint/LoadCheckpoint.
struct TrainingCheckpoint {
  /// First iteration the restored run should execute (capture happens
  /// at the END of iteration next_iteration - 1).
  int64_t next_iteration = 0;
  /// AdamOptimizer::step_count of the decayed-parameter optimizer.
  int64_t opt_decay_steps = 0;
  /// AdamOptimizer::step_count of the plain-parameter optimizer.
  int64_t opt_plain_steps = 0;
  /// AdamOptimizer::step_count of the sample-weight optimizer.
  int64_t opt_w_steps = 0;
  /// Best validation loss seen so far (early stopping).
  double best_valid = std::numeric_limits<double>::infinity();
  /// Consecutive non-improving evaluations so far (early stopping).
  int64_t bad_evals = 0;
  /// Iteration whose parameters are the early-stopping best (-1 none).
  int64_t best_iteration = -1;
  /// First iteration a non-finite / exploded signal was observed
  /// (-1: none). Mirrors TrainDiagnostics::first_bad_iteration.
  int64_t first_bad_iteration = -1;
  /// Divergence rollbacks consumed so far (counts against
  /// SbrlConfig::recovery_max_retries).
  int64_t rollbacks = 0;
  /// Recovery learning-rate backoff scale in effect
  /// (ExponentialDecaySchedule::scale; 1.0 until a rollback).
  double lr_scale = 1.0;
  /// Loss-explosion reference scale (|first finite train loss| + 1);
  /// negative while unset.
  double loss_anchor = -1.0;
  /// Serialized std::mt19937_64 state of the trainer's HSIC rng
  /// stream (the textual form of its stream operators).
  std::string rng_state;
  /// Every trainable parameter incl. the sample weights, in collection
  /// order.
  std::vector<ParamCheckpoint> params;
  /// Early-stopping best parameter values, parallel to `params`
  /// (empty when no improving evaluation happened yet).
  std::vector<Matrix> best_snapshot;
  /// TrainDiagnostics::train_loss recorded so far.
  std::vector<double> train_loss;
  /// TrainDiagnostics::valid_loss recorded so far.
  std::vector<double> valid_loss;
  /// TrainDiagnostics::weight_loss recorded so far.
  std::vector<double> weight_loss;
};

/// The on-disk format version SaveCheckpoint writes. Bump on any
/// layout change; LoadCheckpoint rejects other versions with
/// FailedPrecondition (no silent cross-version reinterpretation).
constexpr uint32_t kCheckpointFormatVersion = 2;

/// Serializes `ckpt` to `path` atomically: the encoded bytes are
/// written to a per-commit staging file, fsynced, and renamed over
/// `path` (serial::WriteSectionedFile), so a crash mid-save can never
/// leave a truncated file at `path` and concurrent saves to one path
/// never interleave. Layout: an 8-byte magic ("SBRLCKPT"), a u32 format
/// version, and length-prefixed sections each trailed by a CRC32 of
/// its payload (see docs/ARCHITECTURE.md "Failure handling &
/// recovery" for the exact layout). Returns Internal on I/O failure
/// (fault site "checkpoint/write" injects one).
Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                      const std::string& path);

/// Reads and validates a checkpoint written by SaveCheckpoint.
/// Returns NotFound when `path` does not exist, InvalidArgument when
/// it is not a checkpoint (bad magic), FailedPrecondition on a format
/// version mismatch, and Internal on truncation or a CRC mismatch
/// (fault site "checkpoint/read" injects a failure).
StatusOr<TrainingCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace sbrl

#endif  // SBRL_CORE_CHECKPOINT_H_
