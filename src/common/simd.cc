#include "common/simd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace sbrl {

namespace simd_detail {
// Per-ISA serial sweep kernels, each defined in its own fast-math
// translation unit (simd_vec.cc and the -march variants; see
// CMakeLists.txt). The baseline pair vectorizes to the SSE2 libmvec
// cosine (_ZGVbN2v_cos); the AVX2/AVX-512 pairs are the same source
// compiled for x86-64-v3/v4, so the vectorizer emits the 4-lane
// (_ZGVdN4v_cos) / 8-lane (_ZGVeN8v_cos) variants. All libmvec
// variants carry the same 4-ulp accuracy bound, but their bit patterns
// differ — which ISA ran is part of a result's provenance, which is
// why the resolved level is pinned per process (common/cpu.h).
void VecCosSerial(const double* x, double* y, int64_t n);
void ScaledCosSerialInPlace(double* x, int64_t n, double scale);
#if defined(SBRL_HAVE_ISA_AVX2)
void VecCosSerialAvx2(const double* x, double* y, int64_t n);
void ScaledCosSerialInPlaceAvx2(double* x, int64_t n, double scale);
#endif
#if defined(SBRL_HAVE_ISA_AVX512)
void VecCosSerialAvx512(const double* x, double* y, int64_t n);
void ScaledCosSerialInPlaceAvx512(double* x, int64_t n, double scale);
#endif
}  // namespace simd_detail

namespace {

/// Serial sweep kernels of one ISA level (the vectorized CosineMode
/// only; kExact always runs scalar std::cos regardless of level).
struct CosKernels {
  void (*vec_cos)(const double* x, double* y, int64_t n);
  void (*scaled_cos)(double* x, int64_t n, double scale);
};

/// Vectorized-mode kernels of the active ISA level; levels not
/// compiled in alias the baseline pair (unreachable in practice —
/// ActiveIsa never resolves above MaxSupportedIsa).
CosKernels ActiveCosKernels() {
  switch (ActiveIsa()) {
#if defined(SBRL_HAVE_ISA_AVX2)
    case Isa::kAvx2:
      return {simd_detail::VecCosSerialAvx2,
              simd_detail::ScaledCosSerialInPlaceAvx2};
#endif
#if defined(SBRL_HAVE_ISA_AVX512)
    case Isa::kAvx512:
      return {simd_detail::VecCosSerialAvx512,
              simd_detail::ScaledCosSerialInPlaceAvx512};
#endif
    default:
      return {simd_detail::VecCosSerial, simd_detail::ScaledCosSerialInPlace};
  }
}

/// Exact reference: plain scalar std::cos in a normally compiled TU, so
/// the compiler cannot substitute the vector variant.
void ScaledCosExactSerialInPlace(double* x, int64_t n, double scale) {
  for (int64_t i = 0; i < n; ++i) x[i] = scale * std::cos(x[i]);
}

/// Per-thread cosine-sweep wall-clock total, in nanoseconds. Thread-
/// local so concurrent runs (which each execute on one thread) never
/// see each other's sweep time in their deltas.
thread_local int64_t t_cos_sweep_nanos = 0;

/// Runs serial_fn(lo, hi) over [0, n) with every chunk boundary on a
/// multiple of kCosSweepBlock. ParallelFor's chunk size depends on the
/// worker count, but because every chunk START here is block-aligned
/// (and SIMD kernels restart at each chunk start), an element's lane
/// position — and therefore its bit pattern — never depends on how the
/// range was split. Grain is one block = the shared ~64K-flop cutoff
/// at kCosFlopWeight per element, so sub-block sweeps stay inline.
template <typename SerialFn>
void BlockAlignedSweep(int64_t n, const SerialFn& serial_fn) {
  Timer timer;
  const int64_t nblocks = (n + kCosSweepBlock - 1) / kCosSweepBlock;
  // Grain in blocks, derived from the shared runtime cutoff (one block
  // at the default cutoff). Chunk STARTS stay block-aligned whatever
  // the grain, so the cutoff knob cannot change any bit either.
  const int64_t grain = std::max<int64_t>(
      1, SerialCutoff() / (kCosSweepBlock * kCosFlopWeight));
  ParallelFor(0, nblocks, grain, [&](int64_t lo, int64_t hi) {
    serial_fn(lo * kCosSweepBlock, std::min(hi * kCosSweepBlock, n));
  });
  t_cos_sweep_nanos += static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
}

}  // namespace

void VecCos(const double* x, double* y, int64_t n) {
  SBRL_CHECK_GE(n, 0);
  const CosKernels kernels = ActiveCosKernels();
  BlockAlignedSweep(n, [x, y, kernels](int64_t lo, int64_t hi) {
    kernels.vec_cos(x + lo, y + lo, hi - lo);
  });
}

void ScaledCosInPlace(double* x, int64_t n, double scale, CosineMode mode) {
  SBRL_CHECK_GE(n, 0);
  if (mode == CosineMode::kVectorized) {
    const CosKernels kernels = ActiveCosKernels();
    BlockAlignedSweep(n, [x, scale, kernels](int64_t lo, int64_t hi) {
      kernels.scaled_cos(x + lo, hi - lo, scale);
    });
  } else {
    BlockAlignedSweep(n, [x, scale](int64_t lo, int64_t hi) {
      ScaledCosExactSerialInPlace(x + lo, hi - lo, scale);
    });
  }
}

void ScaledCosRowsInPlace(double* x, int64_t rows, int64_t cols,
                          int64_t stride, double scale, CosineMode mode) {
  SBRL_CHECK_GE(rows, 0);
  SBRL_CHECK_GE(cols, 0);
  SBRL_CHECK_GE(stride, cols);
  if (stride == cols) {  // the block is contiguous: one flat sweep
    ScaledCosInPlace(x, rows * cols, scale, mode);
    return;
  }
  // Strided block: each row is its own contiguous run. SIMD kernels
  // restart at every row, so results are identical to sweeping each
  // row alone regardless of how rows are chunked across workers.
  Timer timer;
  const int64_t row_work = cols * kCosFlopWeight;
  const int64_t grain =
      std::max<int64_t>(1, SerialCutoff() /
                               std::max<int64_t>(1, row_work));
  const bool vectorized = mode == CosineMode::kVectorized;
  const CosKernels kernels = ActiveCosKernels();
  ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      double* row = x + r * stride;
      if (vectorized) {
        kernels.scaled_cos(row, cols, scale);
      } else {
        ScaledCosExactSerialInPlace(row, cols, scale);
      }
    }
  });
  t_cos_sweep_nanos += static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
}

double CosSweepSecondsThisThread() {
  return static_cast<double>(t_cos_sweep_nanos) * 1e-9;
}

}  // namespace sbrl
