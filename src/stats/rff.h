#ifndef SBRL_STATS_RFF_H_
#define SBRL_STATS_RFF_H_

#include <cstdint>
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
/// bitwise identical. This is what makes RffSlotDraws a pure
/// memoization: every draw set of one epoch sees the same projections.
uint64_t RffSlotSeed(uint64_t epoch_seed, int64_t in_dim,
                     int64_t num_features, int64_t slot);

/// The projection of slot `slot` in epoch `epoch_seed`: SampleRff from
/// a fresh Rng seeded with RffSlotSeed. Deterministic in its arguments
/// alone — no shared stream is consumed.
RffProjection SampleRffSlot(uint64_t epoch_seed, int64_t in_dim,
                            int64_t num_features, int64_t slot);

/// The per-column projections of one draw epoch, memoized for the
/// lifetime of the set: slot c holds SampleRffSlot(epoch_seed, 1, k, c),
/// drawn the first time column c is asked for. A draw costs a few
/// microseconds (seeding a fresh engine), so evaluations that share an
/// epoch — the HAP tiers of one weight step, which all decorrelate with
/// in_dim = 1 and the same k — share one set and draw each column once.
/// Slots are pure functions of their key, so sharing a set or giving
/// each evaluation a fresh one with the same seed yields the same bits.
/// Not thread-safe; one evaluation at a time.
struct RffSlotDraws {
  /// Seed every slot of the set derives from (see RffSlotSeed).
  uint64_t epoch_seed = 0;
  /// Indexed by column; an empty `w` marks a slot not drawn yet.
  std::vector<RffProjection> slots;

  /// Slot `col`'s projection with `num_features` features, drawn on
  /// first use. A later Slot() call may invalidate the reference.
  const RffProjection& Slot(int64_t col, int64_t num_features);
};

/// The projections of one stacked feature matrix, laid out for the row
/// fill: block i (entries [i*k, (i+1)*k), k = num_features) of `w` and
/// `phi` is the in_dim = 1 projection of column cols[i].
struct RffStack {
  /// Source column of each block.
  std::vector<int64_t> cols;
  /// k: features per block.
  int64_t num_features = 0;
  /// Concatenated frequency rows (cols.size() * k).
  std::vector<double> w;
  /// Concatenated phase rows (cols.size() * k).
  std::vector<double> phi;
};

/// The stack of columns `cols` under draws->Slot(col, num_features),
/// drawing the missing slots serially in `cols` order.
RffStack MakeRffStack(const std::vector<int64_t>& cols, int64_t num_features,
                      RffSlotDraws* draws);

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

/// Monotonically increasing PER-THREAD total of wall-clock seconds
/// spent inside the cosine sweeps (ScaledCosInPlace and the cosine of
/// StackRffRows), measured on the thread that issued them (a sweep
/// blocks its caller, so pool fan-out time is included; time spent by
/// pool workers executing someone else's sweep does not accrue here). Callers snapshot it before and after a
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

/// Rows [r0, r1) of the stacked feature matrix of the batched HSIC
/// pair loss: block i of each row holds sqrt(2) cos(x(row, cols[i]) w_i
/// + phi_i) under the stack's projection i. The angles are written row
/// by row, then the active level's scaled cosine runs once over the
/// rows' contiguous run, serially on the calling thread; its time
/// accrues to CosSweepSecondsThisThread(). Each element is a pure
/// function of its inputs, so any row split gives the same bits.
/// `*out` must be (x.rows() x cols.size()*k).
void StackRffRows(const Matrix& x, const RffStack& stack, int64_t r0,
                  int64_t r1, Matrix* out);

}  // namespace sbrl

#endif  // SBRL_STATS_RFF_H_
