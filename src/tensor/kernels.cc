// Kernel-table resolution for the ISA dispatch layer (tensor/kernels.h).
// This TU is compiled with the project's default flags; it only wires
// per-ISA entry points (defined in linalg_kernels_{baseline,avx2,
// avx512}.cc) into tables and picks one by the active Isa. The wide
// block-cross entries compose with the baseline ones: a wide table
// first offers the vectorized sizes and falls back to the baseline
// specializations for the rest, so forcing a wider ISA never loses the
// scalar-specialized sizes.

#include "tensor/kernels.h"

#include "tensor/kernels_impl.h"

namespace sbrl {

namespace {

namespace lk = linalg_kernels;

constexpr LinalgKernels kBaselineTable = {
    lk::BaselineMatmulRows,      lk::BaselineMatmulTransARows,
    lk::BaselineMatmulTransBRows, lk::BaselineBlockCrossFwd,
    lk::BaselineBlockCrossGradDw, lk::BaselineBlockCrossFwdGeneric,
    lk::BaselineElu, lk::BaselineEluGrad, lk::BaselineScaledCos,
};

#if defined(SBRL_HAVE_ISA_AVX2)

bool Avx2BlockCrossFwdOrBaseline(int64_t block, const double* fd,
                                 const double* wd, double* od, int64_t n,
                                 int64_t fcols,
                                 const std::pair<int64_t, int64_t>* pd,
                                 int64_t p0, int64_t p1) {
  if (lk::Avx2BlockCrossFwd(block, fd, wd, od, n, fcols, pd, p0, p1)) {
    return true;
  }
  return lk::BaselineBlockCrossFwd(block, fd, wd, od, n, fcols, pd, p0, p1);
}

bool Avx2BlockCrossGradDwOrBaseline(int64_t block, const double* gd,
                                    const double* fd, double* dwd,
                                    int64_t fcols,
                                    const std::pair<int64_t, int64_t>* pd,
                                    int64_t num_pairs, int64_t r0,
                                    int64_t r1) {
  if (lk::Avx2BlockCrossGradDw(block, gd, fd, dwd, fcols, pd, num_pairs, r0,
                               r1)) {
    return true;
  }
  return lk::BaselineBlockCrossGradDw(block, gd, fd, dwd, fcols, pd,
                                      num_pairs, r0, r1);
}

constexpr LinalgKernels kAvx2Table = {
    lk::Avx2MatmulRows,      lk::Avx2MatmulTransARows,
    lk::Avx2MatmulTransBRows, Avx2BlockCrossFwdOrBaseline,
    Avx2BlockCrossGradDwOrBaseline, lk::Avx2BlockCrossFwdGeneric,
    lk::Avx2Elu, lk::Avx2EluGrad, lk::Avx2ScaledCos,
};

#else
constexpr LinalgKernels kAvx2Table = kBaselineTable;
#endif  // SBRL_HAVE_ISA_AVX2

#if defined(SBRL_HAVE_ISA_AVX512)

bool Avx512BlockCrossFwdOrBaseline(int64_t block, const double* fd,
                                   const double* wd, double* od, int64_t n,
                                   int64_t fcols,
                                   const std::pair<int64_t, int64_t>* pd,
                                   int64_t p0, int64_t p1) {
  if (lk::Avx512BlockCrossFwd(block, fd, wd, od, n, fcols, pd, p0, p1)) {
    return true;
  }
  return lk::BaselineBlockCrossFwd(block, fd, wd, od, n, fcols, pd, p0, p1);
}

bool Avx512BlockCrossGradDwOrBaseline(int64_t block, const double* gd,
                                      const double* fd, double* dwd,
                                      int64_t fcols,
                                      const std::pair<int64_t, int64_t>* pd,
                                      int64_t num_pairs, int64_t r0,
                                      int64_t r1) {
  // k=5 leaves a 512-bit lane 3/8 empty; the 256-bit AVX2 shape (4+1
  // split) wins there, so route that block size down a level. Cross-
  // level dw agreement is tolerance-bounded, not bitwise, so the
  // routing stays inside the existing grad_dw contract.
  if (block == 5 && lk::Avx2BlockCrossGradDw(block, gd, fd, dwd, fcols, pd,
                                             num_pairs, r0, r1)) {
    return true;
  }
  if (lk::Avx512BlockCrossGradDw(block, gd, fd, dwd, fcols, pd, num_pairs,
                                 r0, r1)) {
    return true;
  }
  return lk::BaselineBlockCrossGradDw(block, gd, fd, dwd, fcols, pd,
                                      num_pairs, r0, r1);
}

constexpr LinalgKernels kAvx512Table = {
    lk::Avx512MatmulRows,      lk::Avx512MatmulTransARows,
    lk::Avx512MatmulTransBRows, Avx512BlockCrossFwdOrBaseline,
    Avx512BlockCrossGradDwOrBaseline, lk::Avx512BlockCrossFwdGeneric,
    lk::Avx512Elu, lk::Avx512EluGrad, lk::Avx512ScaledCos,
};

#else
constexpr LinalgKernels kAvx512Table = kAvx2Table;
#endif  // SBRL_HAVE_ISA_AVX512

}  // namespace

const LinalgKernels& LinalgKernelsForIsa(Isa isa) {
  switch (isa) {
    case Isa::kBaseline: return kBaselineTable;
    case Isa::kAvx2: return kAvx2Table;
    case Isa::kAvx512: return kAvx512Table;
  }
  return kBaselineTable;
}

const LinalgKernels& ActiveLinalgKernels() {
  return LinalgKernelsForIsa(ActiveIsa());
}

}  // namespace sbrl
