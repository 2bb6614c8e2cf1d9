// AVX-512 variant of the vectorized cosine kernels: the same loops as
// simd_vec.cc, compiled with -ffast-math -march=x86-64-v4 (see
// CMakeLists.txt) so the auto-vectorizer lowers std::cos to the 8-lane
// libmvec variant (_ZGVeN8v_cos). Everything simd_vec.cc says about
// fast-math hygiene applies here unchanged. Selected at runtime by
// common/simd.cc when the active ISA resolves to avx512.

#if defined(SBRL_HAVE_ISA_AVX512) && defined(__AVX512F__)

#include <cmath>
#include <cstdint>

namespace sbrl {
namespace simd_detail {

void VecCosSerialAvx512(const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::cos(x[i]);
}

void ScaledCosSerialInPlaceAvx512(double* x, int64_t n, double scale) {
  for (int64_t i = 0; i < n; ++i) x[i] = scale * std::cos(x[i]);
}

}  // namespace simd_detail
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX512 && __AVX512F__
