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

}  // namespace simd_detail
}  // namespace sbrl
