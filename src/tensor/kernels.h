#ifndef SBRL_TENSOR_KERNELS_H_
#define SBRL_TENSOR_KERNELS_H_

#include <cstdint>
#include <utility>

#include "common/cpu.h"

namespace sbrl {

/// Accuracy bound of every libmvec call the wide tables make (the vector
/// cos of scaled_cos, the vector expm1 of elu) relative to the scalar
/// libm function, in units in the last place — glibc's documented
/// libmvec guarantee, enforced by tests/simd_test.cc over edge grids.
constexpr int64_t kVecCosMaxUlp = 4;

/// Block width of the two block-cross kernels: the kRffFeatures = 5
/// random Fourier features per column of an HSIC-RFF tier
/// (stats/hsic.h).
constexpr int64_t kBlockCrossWidth = 5;

/// Function-pointer table of the per-tile linear-algebra kernels behind
/// the hot kernel families (dense matmuls, the two block-pair HSIC
/// cross kernels, the f64 ELU and its backward, and the RFF scaled
/// cosine). One table exists per Isa level; tensor/linalg.cc (and the
/// RFF cosine sweeps in stats/rff.cc and the HSIC-RFF tier passes in
/// stats/hsic.cc) fetch ActiveLinalgKernels() at each public entry
/// point and hand tiles to the resolved kernels, so the shape checks,
/// serial cutoffs, and ParallelFor chunking live in exactly one place
/// while the arithmetic inner loops are ISA-specialized.
///
/// Determinism contract (docs/ARCHITECTURE.md "ISA dispatch"):
///  - The baseline table is the pre-dispatch scalar code verbatim:
///    under SBRL_ISA=baseline every result is bit for bit the
///    pre-dispatch value.
///  - matmul_rows / matmul_trans_a_rows / block_cross_fwd preserve the
///    exact per-element multiply-then-add chain in ascending reduction
///    order AT EVERY LEVEL (wider tables vectorize only the independent
///    output dimension and are compiled with -ffp-contract=off), so
///    these three are bitwise identical across every Isa level.
///  - matmul_trans_b_rows and block_cross_grad_dw are dot-product
///    shaped; wider levels use FMA lanes plus a fixed-shape horizontal
///    sum, so they are deterministic and thread-count-invariant WITHIN
///    a level but agree with baseline only to rounding (bounded by
///    tests/cpu_dispatch_test.cc).
///  - The two block-cross entries are register kernels over blocks of
///    kBlockCrossWidth = 5 columns, the one width an HSIC-RFF tier
///    has. The AVX-512 table's dw entry is the AVX2 kernel.
///  - elu is the single f64 ELU of the library. Baseline is scalar
///    std::expm1; the wide levels call libmvec's vector expm1 (at most
///    4 ulp from std::expm1, kVecCosMaxUlp's libmvec ceiling). At every
///    level each output is a pure function of its input alone —
///    independent of lane position, run length, and chunking — so it
///    is bitwise thread- and position-invariant within a level.
///  - elu_grad is the single f64 ELU backward. Its compare, add, blend
///    and multiply are exact, so it is bitwise identical across every
///    level and thread count.
///  - scaled_cos is the single cosine of the library (the sqrt(2) cos
///    epilogue of every RFF feature). Baseline is scalar std::cos; the
///    wide levels call libmvec's vector cos (at most kVecCosMaxUlp from
///    std::cos). The trailing multiply by the scale is a separate IEEE
///    multiply at every level. Like elu, each output is a pure function
///    of its input alone at a level, so offsets, run lengths and
///    chunkings all give the same bits.
struct LinalgKernels {
  /// Rows [r0, r1) of out += a * b, a (n x k), b (k x m): each output
  /// element accumulates its k terms in ascending order.
  using MatmulRowsFn = void (*)(const double* a, const double* b, double* o,
                                int64_t k, int64_t m, int64_t r0, int64_t r1);
  /// Rows [r0, r1) of out += a^T * b, a (k x n), b (k x m): every
  /// element continues from its stored value and takes its k terms in
  /// ascending order. The wide levels hold register tiles of the output
  /// across the whole reduction (4 rows x up to 32 columns, a 1-row
  /// tile for the means shape, row-vectorized columns past the last
  /// full vector) and store each element once.
  using MatmulTransARowsFn = void (*)(const double* a, const double* b,
                                      double* o, int64_t k, int64_t n,
                                      int64_t m, int64_t r0, int64_t r1);
  /// Rows [r0, r1) of out += a * b^T, a (n x k), b (m x k): per-element
  /// dot products over k.
  using MatmulTransBRowsFn = void (*)(const double* a, const double* b,
                                      double* o, int64_t k, int64_t m,
                                      int64_t r0, int64_t r1);
  /// Weighted cross forward over pairs [p0, p1), with B =
  /// kBlockCrossWidth, ca = a_p * B and cb = b_p * B:
  /// out block p (B x B) += sum_i w_i f(i, ca:ca+B)^T f(i, cb:cb+B).
  /// Each accumulator continues from the stored partial sum, so
  /// sweeping the rows in consecutive blocks gives the bits of one call
  /// over all rows.
  using BlockCrossFwdFn = void (*)(const double* fd, const double* wd,
                                   double* od, int64_t n, int64_t fcols,
                                   const std::pair<int64_t, int64_t>* pd,
                                   int64_t p0, int64_t p1);
  /// dw-only backward over rows [r0, r1), B = kBlockCrossWidth:
  /// dw_i += sum_p f(i, ca:ca+B) g_p f(i, cb:cb+B)^T (see
  /// HsicRffTierBackward).
  using BlockCrossGradDwFn = void (*)(const double* gd, const double* fd,
                                      double* dwd, int64_t fcols,
                                      const std::pair<int64_t, int64_t>* pd,
                                      int64_t num_pairs, int64_t r0,
                                      int64_t r1);
  /// In-place ELU over a contiguous run: x[i] = x[i] > 0 ? x[i] :
  /// expm1(x[i]). The ordered compare keeps NaN -> NaN, -inf -> -1 and
  /// -0.0 -> -0.0; positive inputs pass through bit-exact.
  using EluFn = void (*)(double* x, int64_t n);
  /// ELU backward from the POST-activation output over a contiguous
  /// run: out[i] = g[i] * (y[i] > 0 ? 1 : y[i] + 1). The ordered
  /// compare sends NaN y to the y + 1 branch, so NaN propagates.
  using EluGradFn = void (*)(const double* g, const double* y, double* out,
                             int64_t n);
  /// In-place scaled cosine over a contiguous run: x[i] = scale *
  /// cos(x[i]).
  using ScaledCosFn = void (*)(double* x, int64_t n, double scale);

  /// Matmul tile kernel of this level.
  MatmulRowsFn matmul_rows;
  /// MatmulTransA tile kernel of this level.
  MatmulTransARowsFn matmul_trans_a_rows;
  /// MatmulTransB tile kernel of this level.
  MatmulTransBRowsFn matmul_trans_b_rows;
  /// Block-pair weighted-cross forward of this level.
  BlockCrossFwdFn block_cross_fwd;
  /// Block-pair dw-only backward of this level.
  BlockCrossGradDwFn block_cross_grad_dw;
  /// ELU kernel of this level.
  EluFn elu;
  /// ELU backward kernel of this level.
  EluGradFn elu_grad;
  /// Scaled cosine kernel of this level.
  ScaledCosFn scaled_cos;
};

/// The kernel table of one Isa level. A level not compiled into this
/// binary aliases the widest compiled level below it (AVX-512 without
/// its TU is the AVX2 table, AVX2 without its TU the baseline table);
/// ActiveIsa can never resolve to it — see MaxSupportedIsa. Exposed so
/// tests can compare levels directly without flipping process state.
const LinalgKernels& LinalgKernelsForIsa(Isa isa);

/// The table of the currently active ISA (one atomic load + array
/// index; called once per public linalg entry point, not per tile).
const LinalgKernels& ActiveLinalgKernels();

}  // namespace sbrl

#endif  // SBRL_TENSOR_KERNELS_H_
