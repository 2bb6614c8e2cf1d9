// AVX2 variant of the vectorized cosine kernels: the same loops as
// simd_vec.cc, compiled with -ffast-math -march=x86-64-v3 (see
// CMakeLists.txt) so the auto-vectorizer lowers std::cos to the 4-lane
// libmvec variant (_ZGVdN4v_cos). Everything simd_vec.cc says about
// fast-math hygiene applies here unchanged: one multiply per element,
// nothing reassociable, no reductions. Selected at runtime by
// common/simd.cc when the active ISA resolves to avx2.

#if defined(SBRL_HAVE_ISA_AVX2) && defined(__AVX2__)

#include <cmath>
#include <cstdint>

namespace sbrl {
namespace simd_detail {

void VecCosSerialAvx2(const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::cos(x[i]);
}

void ScaledCosSerialInPlaceAvx2(double* x, int64_t n, double scale) {
  for (int64_t i = 0; i < n; ++i) x[i] = scale * std::cos(x[i]);
}

}  // namespace simd_detail
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX2 && __AVX2__
