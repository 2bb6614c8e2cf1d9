#ifndef SBRL_STATS_RFF_H_
#define SBRL_STATS_RFF_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// A draw from the paper's Random Fourier Feature function space
/// H_RFF = { h : x -> sqrt(2) cos(w x + phi) } with w ~ N(0, 1) and
/// phi ~ U(0, 2 pi). `w` has one row per input dimension and one column
/// per random feature.
struct RffProjection {
  Matrix w;    ///< frequency matrix (in_dim x num_features)
  Matrix phi;  ///< phase row (1 x num_features)

  /// Number of cosine features (columns of `w`).
  int64_t num_features() const { return w.cols(); }
  /// Input dimension the projection applies to (rows of `w`).
  int64_t in_dim() const { return w.rows(); }
};

/// Samples an RFF projection with `num_features` cosine features from
/// the sequential stream of `rng` (in_dim * num_features normals, then
/// num_features uniform phases).
RffProjection SampleRff(Rng& rng, int64_t in_dim, int64_t num_features);

/// Seed of the dedicated rng that generates slot `slot` of the
/// (in_dim, num_features) projection stream of a draw epoch — a
/// counter-based splitmix64 hash of all four values. Each slot owns an
/// independent stream, so projections can be (re)generated in any
/// order, by any caller, one at a time or in bulk, and always come out
/// bitwise identical. This is what makes RffProjectionCache a pure
/// memoization: cached and uncached evaluation of the same epoch see
/// the same projections.
uint64_t RffSlotSeed(uint64_t epoch_seed, int64_t in_dim,
                     int64_t num_features, int64_t slot);

/// The projection of slot `slot` in epoch `epoch_seed`: SampleRff from
/// a fresh Rng seeded with RffSlotSeed. Deterministic in its arguments
/// alone — no shared stream is consumed.
RffProjection SampleRffSlot(uint64_t epoch_seed, int64_t in_dim,
                            int64_t num_features, int64_t slot);

/// Concurrency-safe memoization of SampleRffSlot draws across RUNS,
/// keyed by the full draw identity (epoch_seed, in_dim, num_features,
/// slot). An ExperimentSession owns one and wires it into every
/// per-run RffProjectionCache it hands out, so concurrent runs that
/// share an epoch-seed sequence (e.g. the nine methods of one
/// replication, whose hsic rngs start from the same train seed) sample
/// each projection once per session instead of once per run.
///
/// Value-transparent for the same reason the per-run cache is: a slot's
/// projection is a pure function of its key (counter-based streams), so
/// hit/miss order, insertion races, and eviction can change WHEN a
/// projection is sampled but never WHAT any caller observes. Lookups
/// copy the (tiny) projection out under the lock, so entries never
/// dangle into concurrently evicted storage.
///
/// Bounded by epoch FIFO: when more than kMaxEpochs distinct epoch
/// seeds are resident, entire oldest epochs are evicted first — an
/// epoch's draws are only ever re-requested while runs still train
/// through it, so old epochs are dead weight.
class SharedRffProjectionCache {
 public:
  /// Distinct epoch seeds kept resident before FIFO eviction kicks in.
  /// Sized for a full table sweep: seeds x weight steps is O(1000)
  /// epochs of a few KB each, and concurrently LIVE epochs are at most
  /// one per in-flight run.
  static constexpr int64_t kMaxEpochs = 1024;

  /// Copies the memoized projection of the key into `*out` and returns
  /// true, or returns false on a miss. Thread-safe.
  bool Lookup(uint64_t epoch_seed, int64_t in_dim, int64_t num_features,
              int64_t slot, RffProjection* out) const;

  /// Memoizes a copy of `proj` under the key (first writer wins; a
  /// concurrent duplicate insert is dropped — both copies are bitwise
  /// identical by slot purity). Thread-safe.
  void Insert(uint64_t epoch_seed, int64_t in_dim, int64_t num_features,
              int64_t slot, const RffProjection& proj);

  /// Projections currently resident (diagnostic; racy under writers).
  int64_t size() const;
  /// Lookup calls that hit (diagnostic; lets tests assert cross-run
  /// reuse actually happens).
  int64_t hits() const;

 private:
  using Key = std::tuple<uint64_t, int64_t, int64_t, int64_t>;

  /// Drops whole oldest epochs until at most kMaxEpochs remain. Caller
  /// holds mu_.
  void EvictOldEpochsLocked();

  mutable std::mutex mu_;
  std::map<Key, RffProjection> entries_;
  /// Epoch seeds in first-seen order (the FIFO eviction queue) plus
  /// per-epoch entry keys for O(epoch size) eviction.
  std::deque<uint64_t> epoch_order_;
  std::map<uint64_t, std::vector<Key>> epoch_keys_;
  mutable int64_t hits_ = 0;
};

/// Memoizes SampleRffSlot draws within one draw epoch so evaluations
/// sharing a (in_dim, num_features, epoch) stream — e.g. the HAP tiers
/// of one weight step, which all decorrelate with in_dim = 1 and the
/// same feature count k — sample each slot's projection once instead
/// of once per tier. Because slots are counter-based, the cache is
/// value-transparent: training with the cache enabled is bitwise
/// identical to training without it, and no shared rng stream position
/// depends on hit/miss order or the worker-thread count.
///
/// Not thread-safe; callers serialize access (the trainer owns one and
/// queries it from the weight step only).
class RffProjectionCache {
 public:
  /// Starts a new draw epoch: previously memoized projections are
  /// dropped and future Slot() calls draw from `epoch_seed`'s streams.
  /// Calling with the current epoch's seed is a no-op, so one cache
  /// can be re-primed defensively.
  void BeginEpoch(uint64_t epoch_seed);

  /// The projection of `slot` in the current epoch's
  /// (in_dim, num_features) stream, drawn on first use and memoized
  /// until the next BeginEpoch. The reference stays valid until then —
  /// later Slot() calls never invalidate it (deque-backed storage).
  const RffProjection& Slot(int64_t in_dim, int64_t num_features,
                            int64_t slot);

  /// Seed of the epoch started by the last BeginEpoch (0 before any).
  uint64_t epoch_seed() const { return epoch_seed_; }

  /// Projections SAMPLED locally (full misses — not served by this
  /// cache nor by the shared session cache) since the last BeginEpoch —
  /// lets tests assert the cross-tier amortization actually happens.
  int64_t draws_this_epoch() const { return draws_this_epoch_; }

  /// Wires a session-shared second-level cache behind this one: a local
  /// slot miss first consults `shared` (copying any hit into local
  /// deque storage, so references from Slot() never depend on shared
  /// eviction) and publishes fresh draws back into it. Null detaches.
  /// Value-transparent either way; the shared cache must outlive every
  /// Slot() call.
  void set_shared(SharedRffProjectionCache* shared) { shared_ = shared; }

 private:
  uint64_t epoch_seed_ = 0;
  bool has_epoch_ = false;
  int64_t draws_this_epoch_ = 0;
  SharedRffProjectionCache* shared_ = nullptr;
  /// (in_dim, num_features) -> slot-indexed projections; an empty `w`
  /// marks a slot not yet drawn. std::deque so growing for a new slot
  /// keeps references to already-drawn slots valid.
  std::map<std::pair<int64_t, int64_t>, std::deque<RffProjection>> slots_;
};

/// In-place scaled cosine sweep x[i] = scale * cos(x[i]) over a
/// contiguous run — the shared sqrt(2) * cos(angle) epilogue of every
/// RFF evaluation path, through the active level's
/// LinalgKernels::scaled_cos. Fans out across the pool above the
/// shared serial cutoff (a cosine weighs as 16 matmul flops). Each
/// output is a pure function of its input at a level, so the result is
/// bitwise invariant to the worker count and to where the element
/// sits in the run. Seconds spent here accrue to the calling thread's
/// CosSweepSecondsThisThread().
void ScaledCosInPlace(double* x, int64_t n, double scale);

/// ScaledCosInPlace over a strided (rows x cols) block whose row r
/// starts at x + r * stride (stride >= cols), one kernel call per row,
/// rows fanned out across the pool. Collapses to one flat sweep when
/// stride == cols; bitwise identical to sweeping each row alone.
void ScaledCosRowsInPlace(double* x, int64_t rows, int64_t cols,
                          int64_t stride, double scale);

/// Monotonically increasing PER-THREAD total of wall-clock seconds
/// spent inside the cosine sweeps above, measured on the thread that
/// issued them (the sweep blocks its caller, so pool fan-out time is
/// included; time spent by pool workers executing someone else's sweep
/// does not accrue here). Callers snapshot it before and after a
/// region to attribute cosine cost — TrainDiagnostics::rff_cos_seconds
/// is the delta across one Train() call. Run-scoped by construction:
/// each run of a concurrent sweep executes on one thread, so deltas
/// never include another run's sweeps and rff_cos_seconds <=
/// train_seconds always holds.
double CosSweepSecondsThisThread();

/// Applies the projection to samples `x` (n x in_dim), returning the
/// (n x num_features) feature matrix sqrt(2) cos(x w + phi). The
/// projection sum accumulates over in_dim in ascending order; the
/// cosine epilogue runs through ScaledCosInPlace.
Matrix ApplyRff(const RffProjection& proj, const Matrix& x);

/// ApplyRff of column `col` of `x`, read in place through a strided
/// pointer — no Matrix::Col copy. `proj` must have in_dim() == 1.
/// Identical output to ApplyRff(proj, x.Col(col)).
Matrix ApplyRffToColumn(const RffProjection& proj, const Matrix& x,
                        int64_t col);

/// ApplyRffToColumn writing its (n x num_features) block into columns
/// [col_offset, col_offset + num_features) of `*out` (n rows) instead
/// of allocating. The angles land first and the sqrt(2) cos epilogue
/// runs through ScaledCosRowsInPlace, so values are bitwise identical
/// to ApplyRffToColumn whatever the width of `*out`.
void ApplyRffToColumnInto(const RffProjection& proj, const Matrix& x,
                          int64_t col, Matrix* out, int64_t col_offset);

/// Builds the stacked feature matrix of the batched HSIC pair loss:
/// block i of `*out` (columns [i*k, (i+1)*k), k = num_features) holds
/// the RFF features of column cols[i] of `x`. One projection per
/// column is drawn from `rng` serially in list order — the stream is
/// independent of threading. The evaluation materializes the full
/// n x (cols.size()*k) ANGLE matrix with the blocked per-column
/// kernels, then runs one contiguous scaled-cosine sweep over it (the
/// flat-angle layout that lets the dominant cost of the decorrelation
/// loss vectorize). `*out` must be (x.rows() x cols.size()*k).
void StackRffColumns(const Matrix& x, const std::vector<int64_t>& cols,
                     int64_t num_features, Rng& rng, Matrix* out);

/// StackRffColumns with the per-column projections supplied by the
/// caller (projs[i] applies to column cols[i]; every projection must
/// have in_dim() == 1 and `num_features` columns) — the entry point of
/// the slot/cache draw path, where projections come from
/// RffProjectionCache::Slot or SampleRffSlot instead of a sequential
/// rng stream. The pointer form serves callers whose projections
/// already live elsewhere (e.g. inside a cache); the value form is the
/// convenience for locally drawn vectors.
void StackRffColumnsWithProjections(
    const Matrix& x, const std::vector<int64_t>& cols,
    const std::vector<const RffProjection*>& projs, int64_t num_features,
    Matrix* out);
/// Value-vector convenience overload of the above.
void StackRffColumnsWithProjections(
    const Matrix& x, const std::vector<int64_t>& cols,
    const std::vector<RffProjection>& projs, int64_t num_features,
    Matrix* out);

}  // namespace sbrl

#endif  // SBRL_STATS_RFF_H_
