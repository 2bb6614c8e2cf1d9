#ifndef SBRL_TENSOR_KERNELS_IMPL_H_
#define SBRL_TENSOR_KERNELS_IMPL_H_

// Private declarations of the per-ISA kernel entry points that fill the
// LinalgKernels tables (tensor/kernels.h). Each set is defined in its
// own translation unit compiled with that ISA's -march flags
// (linalg_kernels_baseline.cc / _avx2.cc / _avx512.cc); only those
// TUs and tensor/kernels.cc include this header. Signatures mirror the
// function-pointer types on LinalgKernels exactly.

#include <cstdint>
#include <utility>

namespace sbrl {
namespace linalg_kernels {

/// std::mt19937_64's parameters, shared by the three refill kernels:
/// the state words n (kMt19937_64Words of tensor/kernels.h), the middle
/// offset m, the twist matrix, the upper-bits mask of the
/// hi word, and the tempering shifts' masks (u = 29, s = 17, t = 37,
/// l = 43).
constexpr int kMtWords = 312;
constexpr int kMtShift = 156;
constexpr uint64_t kMtMatrix = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kMtUpper = ~uint64_t{0} << 31;
constexpr uint64_t kMtTemperD = 0x5555555555555555ULL;
constexpr uint64_t kMtTemperB = 0x71d67fffeda60000ULL;
constexpr uint64_t kMtTemperC = 0xfff7eee000000000ULL;

/// Baseline (portable x86-64) kernels: the pre-dispatch code verbatim,
/// compiled with the project's default flags — the bitwise reference of
/// the determinism contract.
void BaselineMatmulRows(const double* a, const double* b, double* o,
                        int64_t k, int64_t m, int64_t r0, int64_t r1);
/// See LinalgKernels::MatmulTransARowsFn.
void BaselineMatmulTransARows(const double* a, const double* b, double* o,
                              int64_t k, int64_t n, int64_t m, int64_t r0,
                              int64_t r1);
/// See LinalgKernels::MatmulTransBRowsFn.
void BaselineMatmulTransBRows(const double* a, const double* b, double* o,
                              int64_t k, int64_t m, int64_t r0, int64_t r1);
/// See LinalgKernels::BlockCrossFwdFn: the scalar 5 x 5 block fully
/// unrolled, accumulators in registers.
void BaselineBlockCrossFwd(const double* fd, const double* wd, double* od,
                           int64_t n, int64_t fcols,
                           const std::pair<int64_t, int64_t>* pd, int64_t p0,
                           int64_t p1);
/// See LinalgKernels::BlockCrossGradDwFn: the scalar 5 x 5 block fully
/// unrolled.
void BaselineBlockCrossGradDw(const double* gd, const double* fd, double* dwd,
                              int64_t fcols,
                              const std::pair<int64_t, int64_t>* pd,
                              int64_t num_pairs, int64_t r0, int64_t r1);
/// See LinalgKernels::EluFn: scalar std::expm1 on the negative branch.
void BaselineElu(double* x, int64_t n);
/// See LinalgKernels::EluGradFn: the scalar compare-and-select formula.
void BaselineEluGrad(const double* g, const double* y, double* out, int64_t n);
/// See LinalgKernels::ScaledCosFn: scalar std::cos, then the multiply.
void BaselineScaledCos(double* x, int64_t n, double scale);
/// See LinalgKernels::Mt19937_64RefillFn: the branch-free scalar
/// recurrence, then one temper-and-convert pass.
void BaselineMt19937_64Refill(uint64_t* state, uint64_t* out,
                              double* canonical, double* coordinate);

#if defined(SBRL_HAVE_ISA_AVX2)
/// AVX2 (x86-64-v3, -ffp-contract=off) kernels. The matmul / trans-A /
/// block-cross-forward kernels are bitwise identical to baseline (wide
/// lanes over the independent output dimension only); trans-B and the
/// block-cross dw backward use FMA lanes + horizontal sums.
void Avx2MatmulRows(const double* a, const double* b, double* o, int64_t k,
                    int64_t m, int64_t r0, int64_t r1);
/// See LinalgKernels::MatmulTransARowsFn.
void Avx2MatmulTransARows(const double* a, const double* b, double* o,
                          int64_t k, int64_t n, int64_t m, int64_t r0,
                          int64_t r1);
/// See LinalgKernels::MatmulTransBRowsFn.
void Avx2MatmulTransBRows(const double* a, const double* b, double* o,
                          int64_t k, int64_t m, int64_t r0, int64_t r1);
/// See LinalgKernels::BlockCrossFwdFn: a 4-lane vector plus one scalar
/// column per block row.
void Avx2BlockCrossFwd(const double* fd, const double* wd, double* od,
                       int64_t n, int64_t fcols,
                       const std::pair<int64_t, int64_t>* pd, int64_t p0,
                       int64_t p1);
/// See LinalgKernels::BlockCrossGradDwFn: FMA lanes over the block
/// rows. The AVX-512 table uses it too.
void Avx2BlockCrossGradDw(const double* gd, const double* fd, double* dwd,
                          int64_t fcols,
                          const std::pair<int64_t, int64_t>* pd,
                          int64_t num_pairs, int64_t r0, int64_t r1);
/// See LinalgKernels::EluFn: libmvec _ZGVdN4v_expm1, padded-copy tail.
void Avx2Elu(double* x, int64_t n);
/// See LinalgKernels::EluGradFn: 4-lane blend, scalar tail.
void Avx2EluGrad(const double* g, const double* y, double* out, int64_t n);
/// See LinalgKernels::ScaledCosFn: libmvec _ZGVdN4v_cos, padded-copy tail.
void Avx2ScaledCos(double* x, int64_t n, double scale);
/// See LinalgKernels::Mt19937_64RefillFn: 4-lane twist and temper, the
/// conversion from exact 32-bit halves.
void Avx2Mt19937_64Refill(uint64_t* state, uint64_t* out, double* canonical,
                          double* coordinate);
#endif  // SBRL_HAVE_ISA_AVX2

#if defined(SBRL_HAVE_ISA_AVX512)
/// AVX-512 (x86-64-v4, -ffp-contract=off) kernels; same per-kernel
/// bitwise/bounded split as the AVX2 set, with 8-lane zmm tiles.
void Avx512MatmulRows(const double* a, const double* b, double* o, int64_t k,
                      int64_t m, int64_t r0, int64_t r1);
/// See LinalgKernels::MatmulTransARowsFn.
void Avx512MatmulTransARows(const double* a, const double* b, double* o,
                            int64_t k, int64_t n, int64_t m, int64_t r0,
                            int64_t r1);
/// See LinalgKernels::MatmulTransBRowsFn.
void Avx512MatmulTransBRows(const double* a, const double* b, double* o,
                            int64_t k, int64_t m, int64_t r0, int64_t r1);
/// See LinalgKernels::BlockCrossFwdFn: masked 8-lane block rows.
void Avx512BlockCrossFwd(const double* fd, const double* wd, double* od,
                         int64_t n, int64_t fcols,
                         const std::pair<int64_t, int64_t>* pd, int64_t p0,
                         int64_t p1);
/// See LinalgKernels::EluFn: libmvec _ZGVeN8v_expm1, masked tail.
void Avx512Elu(double* x, int64_t n);
/// See LinalgKernels::EluGradFn: 8-lane masked blend, masked tail.
void Avx512EluGrad(const double* g, const double* y, double* out, int64_t n);
/// See LinalgKernels::ScaledCosFn: libmvec _ZGVeN8v_cos, masked tail.
void Avx512ScaledCos(double* x, int64_t n, double scale);
/// See LinalgKernels::Mt19937_64RefillFn: 8-lane twist and temper, the
/// conversion by vcvtuqq2pd.
void Avx512Mt19937_64Refill(uint64_t* state, uint64_t* out,
                            double* canonical, double* coordinate);
#endif  // SBRL_HAVE_ISA_AVX512

}  // namespace linalg_kernels
}  // namespace sbrl

#endif  // SBRL_TENSOR_KERNELS_IMPL_H_
