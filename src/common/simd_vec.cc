// Vectorized cosine kernels. This translation unit — and ONLY this one
// — is compiled with -ffast-math (see CMakeLists.txt): under that flag
// glibc's math.h attaches the OpenMP-SIMD attribute to cos(), and the
// auto-vectorizer lowers the loops below to glibc libmvec calls
// (_ZGVbN2v_cos and friends), which are documented accurate to 4 ulp.
// Nothing else may live here: fast-math must not touch the angle
// accumulation, the exact reference path, or any reduction whose
// summation order the determinism contract pins down. The loops contain
// one multiply per element, so the flag cannot reassociate anything —
// its only effect is unlocking the SIMD cosine.

#include <cmath>
#include <cstdint>

namespace sbrl {
namespace simd_detail {

void VecCosSerial(const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::cos(x[i]);
}

void ScaledCosSerialInPlace(double* x, int64_t n, double scale) {
  for (int64_t i = 0; i < n; ++i) x[i] = scale * std::cos(x[i]);
}

// f32 ELU sweep for the tape-free serving kernels, written branchless
// (max(v,0) + expf(min(v,0)) - 1) so if-conversion leaves a plain
// vectorizable expf call that lowers to libmvec (_ZGVbN4v_expf here).
// The negative branch is exp(v) - 1, not expm1f (which glibc >= 2.35
// also vectorizes as _ZGV*v_expm1f, unused here so far): near zero
// that costs up to one ulp of 1 in absolute error (~1.2e-7) where
// expm1 would be exact — inside the f32 tier's rounding budget. The
// f64 ELU is not here but in the strict-IEEE kernel TUs
// (LinalgKernels::elu): -ffinite-math-only could fold away its NaN
// and -0.0 handling.
void EluSerialInPlaceF32(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float neg = std::exp(v < 0.0f ? v : 0.0f) - 1.0f;
    const float pos = v > 0.0f ? v : 0.0f;
    x[i] = pos + neg;
  }
}

}  // namespace simd_detail
}  // namespace sbrl
