#ifndef SBRL_STATS_SHARDED_H_
#define SBRL_STATS_SHARDED_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "data/streaming.h"
#include "tensor/matrix.h"

namespace sbrl {

/// Knobs of the sharded accumulation paths (stats below and
/// core/sharded_trainer.h). Resolution order per knob: explicit
/// positive value > SBRL_* env > default — the repo's standard
/// pattern, through the shared ParseEnvInt64 semantics. Every streamed
/// pass stores and accumulates in f64.
struct ShardedOptions {
  /// Rows per shard (= the `max_rows` each NextBlock pull asks for).
  /// 0 resolves SBRL_SHARD_ROWS, default 8192. Shard size is part of
  /// the run identity: results are a deterministic function of it,
  /// and peak memory of a streamed pass is O(shard_rows x d) per
  /// in-flight shard, never O(n x d).
  int64_t shard_rows = 0;
  /// Shard leaves evaluated concurrently per wave (each on its own
  /// ThreadPool lane). 0 resolves SBRL_SHARD_WORKERS, default: the
  /// global pool parallelism. Results are bitwise identical for ANY
  /// worker count — see FixedOrderTreeReducer.
  int64_t workers = 0;
};

/// Copy of `options` with every 0 field resolved from its env knob /
/// default (see the field docs above).
ShardedOptions ResolveShardedOptions(const ShardedOptions& options);

/// Fixed-order pairwise tree reducer — the determinism backbone of the
/// sharded paths, extending the PR-1 kernel contract to cross-shard
/// accumulation. Values are pushed in ascending shard order; the
/// reducer maintains one reduced subtree per binary digit of the count
/// ("binary counter"), eagerly merging equal-size subtrees. The
/// resulting combine bracketing is a pure function of how many values
/// were pushed — never of worker count, wave boundaries, or timing —
/// which is what makes floating-point shard sums bitwise reproducible
/// across worker counts. Memory is O(log pushes), so streams of
/// unbounded length reduce in bounded space.
template <typename T>
class FixedOrderTreeReducer {
 public:
  /// Combine callback: merges two adjacent reductions, earlier-range
  /// argument first. Must be deterministic; associativity is NOT
  /// required (the bracketing is fixed).
  using Combine = std::function<T(T, T)>;

  /// Constructs an empty reducer over `combine`.
  explicit FixedOrderTreeReducer(Combine combine)
      : combine_(std::move(combine)) {}

  /// Pushes the next value (shard order). Merges pairwise while the
  /// binary-counter carry propagates.
  void Push(T value) {
    std::optional<T> carry(std::move(value));
    size_t level = 0;
    while (level < slots_.size() && slots_[level].has_value()) {
      carry = combine_(std::move(*slots_[level]), std::move(*carry));
      slots_[level].reset();
      ++level;
    }
    if (level == slots_.size()) slots_.emplace_back();
    slots_[level] = std::move(carry);
    ++count_;
  }

  /// Merges the remaining partial subtrees (earlier-first) and resets
  /// the reducer. CHECK-fails when nothing was pushed.
  T Finish() {
    SBRL_CHECK_GT(count_, 0) << "Finish() on an empty reducer";
    std::optional<T> acc;
    for (std::optional<T>& slot : slots_) {
      if (!slot.has_value()) continue;
      if (!acc.has_value()) {
        acc = std::move(slot);
      } else {
        // Higher levels hold earlier shards, so they combine on the
        // left of everything accumulated from the lower levels.
        acc = combine_(std::move(*slot), std::move(*acc));
      }
      slot.reset();
    }
    slots_.clear();
    count_ = 0;
    return std::move(*acc);
  }

  /// Values pushed since construction / the last Finish().
  int64_t count() const { return count_; }

 private:
  Combine combine_;
  std::vector<std::optional<T>> slots_;
  int64_t count_ = 0;
};

/// Drives one streamed sharded pass: pulls shards of
/// `options.shard_rows` rows from `reader` in waves of up to
/// `options.workers` blocks (announcing each wave to the reader through
/// DatasetBlockReader::Prefetch first), evaluates `leaf` on the wave's
/// blocks concurrently on the global ThreadPool, and pushes the results
/// into a FixedOrderTreeReducer in ascending shard order.
///
/// `leaf(shard_index, slot, block)` must be a pure function of
/// (shard_index, block) — `slot` (< workers) only names the lane-
/// scoped scratch (e.g. a MatrixPool) the leaf may use, and scratch
/// must be value-transparent. Under that contract the reduction is
/// bitwise identical for every worker count: leaves never depend on
/// scheduling, and the combine bracketing depends only on the shard
/// count. Returns InvalidArgument on an empty stream; `total_rows` /
/// `total_shards` (optional) receive the pass totals.
template <typename T>
StatusOr<T> ShardedReduce(
    DatasetBlockReader& reader, const ShardedOptions& options,
    const std::function<T(int64_t, int64_t, const CausalDataset&)>& leaf,
    const typename FixedOrderTreeReducer<T>::Combine& combine,
    int64_t* total_rows = nullptr, int64_t* total_shards = nullptr) {
  const ShardedOptions opts = ResolveShardedOptions(options);
  const int64_t wave_width = opts.workers;
  FixedOrderTreeReducer<T> reducer(combine);
  std::vector<CausalDataset> wave(static_cast<size_t>(wave_width));
  std::vector<T> results(static_cast<size_t>(wave_width));
  int64_t shard_index = 0;
  int64_t rows_total = 0;
  for (;;) {
    reader.Prefetch(wave_width, opts.shard_rows);
    int64_t filled = 0;
    while (filled < wave_width) {
      SBRL_ASSIGN_OR_RETURN(
          const int64_t rows,
          reader.NextBlock(opts.shard_rows,
                           &wave[static_cast<size_t>(filled)]));
      if (rows == 0) break;
      rows_total += rows;
      ++filled;
    }
    if (filled == 0) break;
    const int64_t base = shard_index;
    ParallelFor(0, filled, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        results[static_cast<size_t>(s)] =
            leaf(base + s, s, wave[static_cast<size_t>(s)]);
      }
    });
    // Reduction order is ascending shard index, independent of which
    // lane computed what.
    for (int64_t s = 0; s < filled; ++s) {
      reducer.Push(std::move(results[static_cast<size_t>(s)]));
    }
    shard_index += filled;
    if (filled < wave_width) break;  // stream exhausted mid-wave
  }
  if (shard_index == 0) {
    return Status::InvalidArgument("empty dataset stream");
  }
  if (total_rows != nullptr) *total_rows = rows_total;
  if (total_shards != nullptr) *total_shards = shard_index;
  return reducer.Finish();
}

/// Per-shard covariate column sums: rows, per-column sum and
/// sum-of-squares (each 1 x d). The building block of streamed
/// standardization / diagnostics at n that never materializes.
struct ColumnMoments {
  /// Rows accumulated.
  int64_t rows = 0;
  /// Per-column value sums (1 x d).
  Matrix sum;
  /// Per-column squared-value sums (1 x d).
  Matrix sum_sq;
};

/// Merges two adjacent shards' moments (earlier-range first; used as
/// the FixedOrderTreeReducer combine).
ColumnMoments CombineColumnMoments(ColumnMoments a, ColumnMoments b);

/// Streams `reader` and returns its tree-reduced covariate column
/// moments. Bitwise identical for every worker count.
StatusOr<ColumnMoments> ShardedColumnMoments(DatasetBlockReader& reader,
                                             const ShardedOptions& options);

/// Column selector of the sharded HSIC-RFF below: values >= 0 index a
/// covariate column of X; kOutcomeColumn selects the outcome Y.
inline constexpr int64_t kOutcomeColumn = -1;

/// Per-shard HSIC-RFF moment sums between two columns: with phi/psi
/// the two RFF feature maps (each row 1 x k), the shard contributes
/// [rows, sum_i phi_i, sum_i psi_i, sum_i phi_i^T psi_i]. These sums
/// are exactly what the cross-covariance HSIC estimator (paper Eq. 7)
/// needs, so HSIC at full n reduces over O(k^2) shard statistics.
struct HsicRffMoments {
  /// Rows accumulated.
  int64_t rows = 0;
  /// Feature-map sums (1 x k each).
  Matrix sum_a;
  /// See sum_a.
  Matrix sum_b;
  /// Cross-products sum_i phi_i^T psi_i (k x k).
  Matrix cross;
};

/// Merges two adjacent shards' HSIC moments (earlier-range first).
HsicRffMoments CombineHsicRffMoments(HsicRffMoments a, HsicRffMoments b);

/// Closes the estimator over reduced moments:
/// || cross/n - mean_a^T mean_b ||_F^2, the squared Frobenius norm of
/// the RFF cross-covariance — the same statistic HsicRff computes
/// in-core (equal up to summation-order rounding).
double FinalizeHsicRff(const HsicRffMoments& moments);

/// Streaming HSIC-RFF between two columns of `reader` (covariate index
/// or kOutcomeColumn), with `num_features` random Fourier features per
/// side drawn via SampleRffSlot(draw_seed, 1, num_features, 0/1) —
/// counter-based draws, so the projections are independent of shard
/// traversal. Bitwise identical for every worker count; exact (modulo
/// fixed-bracketing rounding) match of the in-core estimator on the
/// same stream.
StatusOr<double> ShardedHsicRff(DatasetBlockReader& reader, int64_t col_a,
                                int64_t col_b, int64_t num_features,
                                uint64_t draw_seed,
                                const ShardedOptions& options);

}  // namespace sbrl

#endif  // SBRL_STATS_SHARDED_H_
