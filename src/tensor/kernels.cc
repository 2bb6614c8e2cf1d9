// Kernel-table resolution for the ISA dispatch layer (tensor/kernels.h).
// This TU is compiled with the project's default flags; it only lists
// the per-ISA entry points (defined in linalg_kernels_{baseline,avx2,
// avx512}.cc) in one table per level and picks one by the active Isa.
// The AVX-512 table's block-cross dw entry is the AVX2 one.

#include "tensor/kernels.h"

#include "tensor/kernels_impl.h"

namespace sbrl {

namespace {

namespace lk = linalg_kernels;

static_assert(lk::kMtWords == kMt19937_64Words,
              "the refill kernels fill one engine block");

constexpr LinalgKernels kBaselineTable = {
    lk::BaselineMatmulRows,      lk::BaselineMatmulTransARows,
    lk::BaselineMatmulTransBRows, lk::BaselineBlockCrossFwd,
    lk::BaselineBlockCrossGradDw, lk::BaselineElu,
    lk::BaselineEluGrad,          lk::BaselineScaledCos,
    lk::BaselineMt19937_64Refill,
};

#if defined(SBRL_HAVE_ISA_AVX2)
constexpr LinalgKernels kAvx2Table = {
    lk::Avx2MatmulRows,      lk::Avx2MatmulTransARows,
    lk::Avx2MatmulTransBRows, lk::Avx2BlockCrossFwd,
    lk::Avx2BlockCrossGradDw, lk::Avx2Elu,
    lk::Avx2EluGrad,          lk::Avx2ScaledCos,
    lk::Avx2Mt19937_64Refill,
};
#else
constexpr LinalgKernels kAvx2Table = kBaselineTable;
#endif  // SBRL_HAVE_ISA_AVX2

#if defined(SBRL_HAVE_ISA_AVX512)
constexpr LinalgKernels kAvx512Table = {
    lk::Avx512MatmulRows,      lk::Avx512MatmulTransARows,
    lk::Avx512MatmulTransBRows, lk::Avx512BlockCrossFwd,
    lk::Avx2BlockCrossGradDw,   lk::Avx512Elu,
    lk::Avx512EluGrad,          lk::Avx512ScaledCos,
    lk::Avx512Mt19937_64Refill,
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
