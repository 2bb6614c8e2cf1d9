#ifndef SBRL_COMMON_SIMD_H_
#define SBRL_COMMON_SIMD_H_

#include <cstdint>

namespace sbrl {

/// How transcendental sweeps (today: the RFF cosine epilogue) are
/// evaluated: a fast production path plus an exact reference path
/// selectable per call. Training runs kVectorized; the f64 sharded
/// stats run kExact.
///
/// kVectorized routes each contiguous run through a SIMD cosine kernel
/// (glibc libmvec via compiler auto-vectorization when available, see
/// src/common/simd_vec.cc). Results agree with std::cos to at most
/// kVecCosMaxUlp units in the last place per element — enforced by
/// tests/simd_test.cc over edge angles — but are not bitwise equal to
/// the scalar libm calls.
///
/// kExact calls std::cos per element in a translation unit compiled
/// WITHOUT value-changing math flags: given the same inputs, outputs
/// equal scalar std::cos bit for bit. Use it when bitwise
/// comparability with scalar references matters more than speed.
///
/// Both modes compute each output element independently from its input
/// element alone, and the parallel fan-out splits work on fixed
/// 4096-element block boundaries, so either mode is bitwise invariant
/// to the worker-thread count.
enum class CosineMode {
  kVectorized,  ///< SIMD sweep (libmvec), <= 4 ulp from std::cos
  kExact,       ///< scalar std::cos reference, bitwise reproducible
};

/// Documented accuracy bound of the kVectorized cosine relative to
/// std::cos, in units in the last place (glibc's libmvec guarantee).
constexpr int64_t kVecCosMaxUlp = 4;

/// Relative cost weight of one cosine evaluation in units of the
/// cache-blocked matmul flops that calibrate kParallelSerialCutoff: a
/// libm cosine costs roughly this many multiply-adds, so sweeps weigh
/// their element count by it before comparing against the shared
/// serial cutoff.
constexpr int64_t kCosFlopWeight = 16;

/// Parallel sweeps split on multiples of this many elements, so an
/// element's position relative to the start of its SIMD run never
/// depends on how ParallelFor chunked the range — the alignment that
/// keeps kVectorized results bitwise thread-count-invariant. One block
/// times kCosFlopWeight equals the shared ~64K-flop serial cutoff.
constexpr int64_t kCosSweepBlock = 4096;

/// y[i] = cos(x[i]) for i in [0, n) through the vectorized kernel,
/// fanning out across the pool in kCosSweepBlock-aligned chunks above
/// the shared serial cutoff. `x == y` (in-place) is allowed; other
/// overlap is not. Accuracy: <= kVecCosMaxUlp ulp vs std::cos.
void VecCos(const double* x, double* y, int64_t n);

/// In-place scaled cosine sweep x[i] = scale * cos(x[i]) over a
/// contiguous run — the shared sqrt(2)*cos(angle) epilogue of every
/// RFF evaluation path. `mode` picks the vectorized or exact kernel;
/// the trailing multiply by `scale` is performed identically in both
/// modes, so mode-to-mode disagreement is bounded by the cosine ulp
/// bound alone. Parallelizes like VecCos. Seconds spent here accrue to
/// the calling thread's CosSweepSecondsThisThread().
void ScaledCosInPlace(double* x, int64_t n, double scale, CosineMode mode);

/// ScaledCosInPlace over a strided (rows x cols) block whose row r
/// starts at x + r * stride (stride >= cols): each row is swept as its
/// own contiguous run. Collapses to one flat sweep when stride == cols.
/// Lets callers apply the shared epilogue to a feature block embedded
/// in a wider stacked matrix without copying it out.
void ScaledCosRowsInPlace(double* x, int64_t rows, int64_t cols,
                          int64_t stride, double scale, CosineMode mode);

/// Monotonically increasing PER-THREAD total of wall-clock seconds
/// spent inside the cosine sweeps above, measured on the thread that
/// issued them (the sweep blocks its caller, so pool fan-out time is
/// included; time spent by pool workers executing someone else's sweep
/// does not accrue here). Callers snapshot it before and after a
/// region to attribute cosine cost — TrainDiagnostics::rff_cos_seconds
/// is the delta across one Train() call. Run-scoped by construction:
/// each run of a concurrent sweep executes on one thread, so deltas
/// never include another run's sweeps and rff_cos_seconds <=
/// train_seconds always holds (the cross-run attribution contract a
/// process-global counter cannot give).
double CosSweepSecondsThisThread();

}  // namespace sbrl

#endif  // SBRL_COMMON_SIMD_H_
