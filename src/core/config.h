#ifndef SBRL_CORE_CONFIG_H_
#define SBRL_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/cpu.h"
#include "common/status.h"

namespace sbrl {

/// Which backbone network estimates the potential outcomes. These are
/// the three baselines the paper plugs SBRL / SBRL-HAP into (Sec. V-A).
enum class BackboneKind {
  kTarnet,  ///< shared representation + two heads, no balancing
  kCfr,     ///< TARNet + IPM representation balancing
  kDerCfr,  ///< decomposed I/C/A representations (Wu et al., TKDE'22)
};

/// Which stable-learning framework wraps the backbone.
enum class FrameworkKind {
  kVanilla,  ///< the plain backbone
  kSbrl,     ///< + Balancing & Independence Regularizers (last layer only)
  kSbrlHap,  ///< + Hierarchical-Attention Paradigm (all layers)
};

/// Human-readable backbone name ("TARNet" / "CFR" / "DeR-CFR").
const char* BackboneName(BackboneKind kind);
/// Human-readable framework suffix ("vanilla" / "+SBRL" / "+SBRL-HAP").
const char* FrameworkName(FrameworkKind kind);

/// Returns e.g. "CFR+SBRL-HAP" — the method names used in the paper's
/// tables.
std::string MethodName(BackboneKind backbone, FrameworkKind framework);

/// Architecture of the representation network and outcome heads
/// (paper Table IV notation: {d_r, d_y} depths, {h_r, h_y} widths).
struct NetworkConfig {
  /// Depth d_r of the representation network.
  int64_t rep_layers = 3;
  /// Width h_r of each representation layer.
  int64_t rep_width = 64;
  /// Depth d_y of each outcome head.
  int64_t head_layers = 3;
  /// Width h_y of each outcome-head layer.
  int64_t head_width = 32;
};

/// CFR-specific knobs.
struct CfrConfig {
  /// Weight of the linear-MMD balancing term (paper's alpha).
  double alpha_ipm = 1.0;
};

/// SBRL / SBRL-HAP framework knobs (paper Eq. 11).
struct SbrlConfig {
  /// alpha: weight of the Balancing Regularizer term L_B in L_w.
  /// Forced to 0 for TARNet backbones (paper Table IV footnote).
  double alpha_br = 1.0;
  /// gamma1: decorrelation of the last hidden layer Z_p (the classic
  /// stable-learning target).
  double gamma1 = 1.0;
  /// gamma2: decorrelation of the balanced representation Z_r
  /// (HAP only).
  double gamma2 = 1e-3;
  /// gamma3: decorrelation of every other hidden layer Z_o (HAP only).
  double gamma3 = 1e-3;
  /// Random feature-pair subsample per decorrelation loss evaluation;
  /// 0 measures every pair (StableNet-style stochastic decorrelation).
  int64_t hsic_pair_budget = 48;
  /// Requested kernel instruction-set level (see Isa / IsaChoice in
  /// common/cpu.h). std::nullopt ("auto", the default) resolves to the
  /// widest level the host CPU and this build support; Isa::kBaseline
  /// forces the portable pre-dispatch kernels bit for bit. The SBRL_ISA
  /// environment variable, when set to a valid level, overrides this field —
  /// resolution order: SBRL_ISA env > config > auto-detect, always
  /// clamped to what the host supports. The trainer applies the choice
  /// process-wide at Train() entry and records the resolved level in
  /// TrainDiagnostics::isa.
  IsaChoice isa;
  /// Divergence response of the training health monitor (a non-finite
  /// loss term or gradient digest, or |train loss| past 1e6 times
  /// (|first finite train loss| + 1)). A positive budget restores the
  /// last healthy in-memory snapshot (captured every 10 iterations) —
  /// parameters, optimizer moments, sample weights, the rng stream, and
  /// the early-stopping state — halves the learning rates (compounding
  /// across rollbacks), and replays, up to this many rollbacks; an
  /// exhausted budget fails the run with a typed kInternal Status
  /// carrying the divergence diagnostics. 0 turns recovery off: no
  /// snapshots are captured and the first detection fails the run.
  /// TrainDiagnostics::first_bad_iteration records the detection point
  /// either way. Without a divergence training is bitwise identical at
  /// any budget (locked by tests/golden_trace_test.cc). Must be >= 0.
  int64_t recovery_max_retries = 3;
  /// Learning rate of the sample-weight learner.
  double lr_w = 5e-2;
};

/// Optimization loop settings (paper Sec. V-C: Adam, exponential decay,
/// early stopping, max 3000 iterations; full-batch). The fixed parts of
/// the network update are documented on NetworkUpdate (core/trainer.h).
struct TrainConfig {
  /// Maximum full-batch iterations of Algorithm 1.
  int64_t iterations = 600;
  /// Initial Adam learning rate of the network step.
  double lr = 1e-3;
  /// Validation cadence for early stopping; 0 disables.
  int64_t eval_every = 25;
  /// Number of consecutive non-improving evaluations tolerated.
  int64_t patience = 10;
  /// Master seed of initialization, draws, and shuffles.
  uint64_t seed = 1234;
  /// Durable-checkpoint file path; empty disables on-disk
  /// checkpointing. Saves are atomic (temp file + rename) and
  /// versioned/CRC-protected (see core/checkpoint.h). A failed save is
  /// non-fatal: the trainer logs a warning, counts it in
  /// TrainDiagnostics::checkpoint_failures, and keeps training.
  std::string checkpoint_path;
  /// Iterations between checkpoint saves (> 0 requires a
  /// checkpoint_path; 0 disables periodic saves). A final checkpoint
  /// is also written when training completes with checkpointing on.
  int64_t checkpoint_every = 0;
  /// Resume from checkpoint_path when it exists: restores the full
  /// training state and continues bit-for-bit identically to an
  /// uninterrupted run (see core/checkpoint.h). A missing file starts
  /// fresh; an unreadable/corrupt file fails Train() instead of
  /// silently retraining from scratch.
  bool resume = false;
};

/// Complete configuration of an HteEstimator.
struct EstimatorConfig {
  /// Potential-outcome backbone network.
  BackboneKind backbone = BackboneKind::kCfr;
  /// Stable-learning framework wrapped around it.
  FrameworkKind framework = FrameworkKind::kSbrlHap;
  /// Network architecture.
  NetworkConfig network;
  /// CFR knobs (used when backbone == kCfr).
  CfrConfig cfr;
  /// SBRL / SBRL-HAP framework knobs.
  SbrlConfig sbrl;
  /// Optimization-loop settings.
  TrainConfig train;

  /// Structural validation; returns InvalidArgument with a reason when
  /// a setting is out of range.
  Status Validate() const;
};

}  // namespace sbrl

#endif  // SBRL_CORE_CONFIG_H_
