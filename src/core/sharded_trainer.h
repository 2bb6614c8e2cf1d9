#ifndef SBRL_CORE_SHARDED_TRAINER_H_
#define SBRL_CORE_SHARDED_TRAINER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "core/backbone.h"
#include "core/config.h"
#include "core/inference_net.h"
#include "data/streaming.h"
#include "stats/sharded.h"
#include "tensor/pool.h"

namespace sbrl {

/// Configuration of the sharded full-batch trainer. Deliberately a
/// subset of EstimatorConfig: the sharded path supports exactly the
/// row-separable configuration (TARNet backbone, vanilla framework),
/// where the full-batch mean-loss gradient equals (1/n) times the sum
/// of per-shard gradient sums — the algebraic identity that makes
/// out-of-core training exact rather than an approximation.
struct ShardedTrainerConfig {
  /// Backbone architecture.
  NetworkConfig network;
  /// Full passes over the stream, each one SbrlTrainer's NetworkUpdate
  /// step at TrainConfig's default learning rate.
  int64_t iterations = 50;
  /// Seed of parameter initialization.
  uint64_t seed = 1234;
  /// Outcome family: sigmoid cross-entropy when true, squared error
  /// otherwise.
  bool binary_outcome = true;
  /// Shard size / worker-lane knobs (see stats/sharded.h); resolved
  /// once at Train() entry so one fit uses one fixed decomposition.
  ShardedOptions sharding;
};

/// Per-fit observability of the sharded trainer.
struct ShardedTrainDiagnostics {
  /// Mean factual loss per pass (loss sums reduced shard-wise, scaled
  /// by 1/n once at the root).
  std::vector<double> train_loss;
  /// Rows per pass over the stream.
  int64_t rows = 0;
  /// Shards per pass.
  int64_t shards = 0;
  /// Resolved rows-per-shard of the fit.
  int64_t shard_rows = 0;
  /// Resolved worker-lane count of the fit.
  int64_t workers = 0;
  /// Wall-clock seconds of Train().
  double train_seconds = 0.0;
  /// Rows processed per second across all passes.
  double rows_per_second = 0.0;
};

/// Full-batch trainer over a `DatasetBlockReader` stream: every pass
/// pulls fixed-size row shards, records each shard's forward/backward
/// on a private pooled tape (per-row loss SUMS, not means), reads the
/// per-shard gradient sums out of the shard's binder, and combines
/// shard results through a FixedOrderTreeReducer before one Adam step
/// on the mean-loss gradient.
///
/// Determinism contract (extends PR-1/PR-7, see docs/ARCHITECTURE.md
/// "Sharded deterministic training"): for a fixed stream and fixed
/// `sharding.shard_rows`, fitted parameters are bitwise identical for
/// every worker count, and identical whether the stream comes from
/// CSV, the chunked synthetic generator, or an in-core dataset with
/// the same rows. Peak memory is O(workers x shard_rows x d), never
/// O(n x d).
class ShardedTrainer {
 public:
  /// Builds and initializes the backbone (TARNet, seeded by
  /// `config.seed`).
  ShardedTrainer(const ShardedTrainerConfig& config, int64_t input_dim);

  /// Runs `config.iterations` full passes over `reader` (Reset() is
  /// called before each pass). Returns the first stream error;
  /// Internal when a gradient digest goes non-finite.
  Status Train(DatasetBlockReader& reader,
               ShardedTrainDiagnostics* diag = nullptr);

  /// Streamed ATE estimate after Train: mean predicted ITE over the
  /// stream, accumulated shard-wise (sigmoid-probability difference
  /// for binary outcomes, raw head difference otherwise). Every shard
  /// runs one shared InferenceNet of the fitted parameters. Resets the
  /// reader first. Bitwise worker-count invariant like Train.
  StatusOr<double> EstimateAte(DatasetBlockReader& reader);

  /// In-core ITE predictions (n x 1) for `x` (no sharding; for tests
  /// and small scoring batches), bitwise equal to EstimateAte's
  /// per-row terms.
  Matrix PredictIte(const Matrix& x) const;

  /// Appends a copy of every parameter value in canonical
  /// CollectParams order — the bitwise-comparison surface of the
  /// determinism tests.
  void CollectParamValues(std::vector<Matrix>* out) const;

  /// Covariate dimension the backbone was built for.
  int64_t input_dim() const { return input_dim_; }

 private:
  struct ShardStats;

  /// Forward/backward of one shard on the slot's pooled tape; returns
  /// loss/arm sums and per-param gradient sums aligned to `params_`.
  ShardStats ComputeShard(const CausalDataset& block, MatrixPool* pool);

  /// Resolves config_.sharding and grows slot_pools_ to its worker
  /// count; every streamed pass starts here.
  ShardedOptions ResolveSlots();

  /// The fitted TARNet as an InferenceNet (spec from config_).
  InferenceNet Net() const;

  ShardedTrainerConfig config_;
  int64_t input_dim_ = 0;
  std::unique_ptr<Backbone> backbone_;
  /// Canonical parameter order (CollectParams); shard gradient vectors
  /// align to it.
  std::vector<Param*> params_;
  std::unordered_map<const Param*, size_t> param_index_;
  /// One value-transparent scratch pool per worker lane, reused across
  /// waves and passes.
  std::vector<std::unique_ptr<MatrixPool>> slot_pools_;
};

}  // namespace sbrl

#endif  // SBRL_CORE_SHARDED_TRAINER_H_
