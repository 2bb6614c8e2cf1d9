// AVX-512 (x86-64-v4) kernel set of the ISA-dispatch tables. Compiled
// with -march=x86-64-v4 -ffp-contract=off; see linalg_kernels_avx2.cc
// for why the contract flag is load-bearing. Same determinism split:
// MatmulRows / MatmulTransARows / BlockCrossFwd are bitwise identical
// to baseline (8-lane zmm over the independent output dimension,
// separate multiply and add, scalar tails repeating the same chain);
// MatmulTransBRows / BlockCrossGradDw collapse FMA lanes through
// _mm512_reduce_add_pd — a fixed reduction tree per build — so they
// are deterministic and chunk-invariant within this level but agree
// with baseline only to rounding.

#include "tensor/kernels_impl.h"

#if defined(SBRL_HAVE_ISA_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>

// libmvec's 8-lane AVX-512 expm1 (glibc >= 2.35) and cos, called
// directly: each lane's result depends on that lane's input alone.
extern "C" __m512d _ZGVeN8v_expm1(__m512d);
extern "C" __m512d _ZGVeN8v_cos(__m512d);

namespace sbrl {
namespace linalg_kernels {

namespace {

// Same j-panel width as the baseline kernel.
constexpr int64_t kJBlock = 128;

/// Lane mask selecting the low 5 doubles of a zmm — the B = 5 block
/// kernels below keep 5-wide rows in masked 8-lane registers.
constexpr __mmask8 kMask5 = 0x1F;

/// ELU of eight lanes; see EluLanes in linalg_kernels_avx2.cc.
inline __m512d EluLanes(__m512d v) {
  const __mmask8 pos = _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_GT_OQ);
  const __m512d e = _ZGVeN8v_expm1(_mm512_maskz_mov_pd(~pos, v));
  return _mm512_mask_blend_pd(pos, e, v);
}

/// ELU backward of eight lanes; see EluGradLanes in
/// linalg_kernels_avx2.cc.
inline __m512d EluGradLanes(__m512d g, __m512d y) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __mmask8 pos = _mm512_cmp_pd_mask(y, _mm512_setzero_pd(), _CMP_GT_OQ);
  return _mm512_mul_pd(g,
                       _mm512_mask_blend_pd(pos, _mm512_add_pd(y, one), one));
}

}  // namespace

// The matmul tile kernel is the shared baseline SOURCE, auto-vectorized
// at this TU's -march level; see linalg_kernels_avx2.cc for why this
// beats a hand-written register-accumulator kernel.
#define SBRL_MATMUL_ROWS_KERNEL_NAME Avx512MatmulRows
#include "tensor/matmul_rows_kernel.inc"
#undef SBRL_MATMUL_ROWS_KERNEL_NAME

void Avx512MatmulTransARows(const double* __restrict ad,
                            const double* __restrict bd, double* __restrict od,
                            int64_t k, int64_t n, int64_t m, int64_t r0,
                            int64_t r1) {
  for (int64_t p = 0; p < k; ++p) {
    const double* acol = ad + p * n;
    const double* brow = bd + p * m;
    for (int64_t i = r0; i < r1; ++i) {
      const __m512d av = _mm512_set1_pd(acol[i]);
      double* orow = od + i * m;
      int64_t j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m512d bv = _mm512_loadu_pd(brow + j);
        const __m512d ov = _mm512_loadu_pd(orow + j);
        _mm512_storeu_pd(orow + j, _mm512_add_pd(ov, _mm512_mul_pd(av, bv)));
      }
      const double avs = acol[i];
      for (; j < m; ++j) orow[j] += avs * brow[j];
    }
  }
}

namespace {

/// One (i, j) dot product over k: 8-lane FMA chain ascending p,
/// _mm512_reduce_add_pd, then the scalar remainder added last.
inline double DotAvx512(const double* __restrict a, const double* __restrict b,
                        int64_t k) {
  __m512d acc = _mm512_setzero_pd();
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + p), _mm512_loadu_pd(b + p),
                          acc);
  }
  double total = _mm512_reduce_add_pd(acc);
  for (; p < k; ++p) total += a[p] * b[p];
  return total;
}

}  // namespace

void Avx512MatmulTransBRows(const double* __restrict ad,
                            const double* __restrict bd, double* __restrict od,
                            int64_t k, int64_t m, int64_t r0, int64_t r1) {
  // Blocked panel: 2 A rows x 4 B rows share one ascending-k pass (see
  // the AVX2 kernel for the load-reuse arithmetic). Every output
  // element still runs EXACTLY DotAvx512's operation sequence, so the
  // panel kernel is bitwise identical to the 2x2-of-dots kernel it
  // replaces and chunk-invariant within this level.
  int64_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const double* a0 = ad + i * k;
    const double* a1 = a0 + k;
    double* o0 = od + i * m;
    double* o1 = o0 + m;
    int64_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = bd + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
      __m512d c02 = _mm512_setzero_pd(), c03 = _mm512_setzero_pd();
      __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
      __m512d c12 = _mm512_setzero_pd(), c13 = _mm512_setzero_pd();
      int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m512d va0 = _mm512_loadu_pd(a0 + p);
        const __m512d va1 = _mm512_loadu_pd(a1 + p);
        const __m512d vb0 = _mm512_loadu_pd(b0 + p);
        c00 = _mm512_fmadd_pd(va0, vb0, c00);
        c10 = _mm512_fmadd_pd(va1, vb0, c10);
        const __m512d vb1 = _mm512_loadu_pd(b1 + p);
        c01 = _mm512_fmadd_pd(va0, vb1, c01);
        c11 = _mm512_fmadd_pd(va1, vb1, c11);
        const __m512d vb2 = _mm512_loadu_pd(b2 + p);
        c02 = _mm512_fmadd_pd(va0, vb2, c02);
        c12 = _mm512_fmadd_pd(va1, vb2, c12);
        const __m512d vb3 = _mm512_loadu_pd(b3 + p);
        c03 = _mm512_fmadd_pd(va0, vb3, c03);
        c13 = _mm512_fmadd_pd(va1, vb3, c13);
      }
      double t00 = _mm512_reduce_add_pd(c00);
      double t01 = _mm512_reduce_add_pd(c01);
      double t02 = _mm512_reduce_add_pd(c02);
      double t03 = _mm512_reduce_add_pd(c03);
      double t10 = _mm512_reduce_add_pd(c10);
      double t11 = _mm512_reduce_add_pd(c11);
      double t12 = _mm512_reduce_add_pd(c12);
      double t13 = _mm512_reduce_add_pd(c13);
      for (; p < k; ++p) {
        const double a0p = a0[p], a1p = a1[p];
        t00 += a0p * b0[p]; t01 += a0p * b1[p];
        t02 += a0p * b2[p]; t03 += a0p * b3[p];
        t10 += a1p * b0[p]; t11 += a1p * b1[p];
        t12 += a1p * b2[p]; t13 += a1p * b3[p];
      }
      o0[j] += t00; o0[j + 1] += t01; o0[j + 2] += t02; o0[j + 3] += t03;
      o1[j] += t10; o1[j + 1] += t11; o1[j + 2] += t12; o1[j + 3] += t13;
    }
    for (; j < m; ++j) {
      const double* brow = bd + j * k;
      o0[j] += DotAvx512(a0, brow, k);
      o1[j] += DotAvx512(a1, brow, k);
    }
  }
  for (; i < r1; ++i) {
    const double* arow = ad + i * k;
    double* orow = od + i * m;
    for (int64_t j = 0; j < m; ++j) {
      orow[j] += DotAvx512(arow, bd + j * k, k);
    }
  }
}

namespace {

/// Forward weighted cross for B = 4 (256-bit lanes; VL encodings keep
/// IEEE semantics, so the chain is bitwise the baseline's).
void BlockCrossFwd4(const double* __restrict fd, const double* __restrict wd,
                    double* __restrict od, int64_t n, int64_t fcols,
                    const std::pair<int64_t, int64_t>* pd, int64_t p0,
                    int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * 4;
    const int64_t cb = pd[p].second * 4;
    __m256d acc[4];
    for (int r = 0; r < 4; ++r) acc[r] = _mm256_setzero_pd();
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      const double* arow = frow + ca;
      const __m256d bv = _mm256_loadu_pd(frow + cb);
      for (int r = 0; r < 4; ++r) {
        acc[r] = _mm256_add_pd(
            acc[r], _mm256_mul_pd(_mm256_set1_pd(arow[r] * wi), bv));
      }
    }
    double* ob = od + p * 16;
    for (int r = 0; r < 4; ++r) {
      double* orow = ob + r * 4;
      _mm256_storeu_pd(orow, _mm256_add_pd(_mm256_loadu_pd(orow), acc[r]));
    }
  }
}

/// Forward weighted cross for B = 5: masked 8-lane rows, five register
/// accumulators per pair, ascending-row chains bitwise the baseline's.
void BlockCrossFwd5(const double* __restrict fd, const double* __restrict wd,
                    double* __restrict od, int64_t n, int64_t fcols,
                    const std::pair<int64_t, int64_t>* pd, int64_t p0,
                    int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * 5;
    const int64_t cb = pd[p].second * 5;
    __m512d acc[5];
    for (int r = 0; r < 5; ++r) acc[r] = _mm512_setzero_pd();
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      const double* arow = frow + ca;
      const __m512d bv = _mm512_maskz_loadu_pd(kMask5, frow + cb);
      for (int r = 0; r < 5; ++r) {
        acc[r] = _mm512_add_pd(
            acc[r], _mm512_mul_pd(_mm512_set1_pd(arow[r] * wi), bv));
      }
    }
    double* ob = od + p * 25;
    for (int r = 0; r < 5; ++r) {
      double* orow = ob + r * 5;
      const __m512d ov = _mm512_maskz_loadu_pd(kMask5, orow);
      _mm512_mask_storeu_pd(orow, kMask5, _mm512_add_pd(ov, acc[r]));
    }
  }
}

/// Forward weighted cross for B = 8: one zmm accumulator per output
/// row, the natural shape of this level.
void BlockCrossFwd8(const double* __restrict fd, const double* __restrict wd,
                    double* __restrict od, int64_t n, int64_t fcols,
                    const std::pair<int64_t, int64_t>* pd, int64_t p0,
                    int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * 8;
    const int64_t cb = pd[p].second * 8;
    __m512d acc[8];
    for (int r = 0; r < 8; ++r) acc[r] = _mm512_setzero_pd();
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      const double* arow = frow + ca;
      const __m512d bv = _mm512_loadu_pd(frow + cb);
      for (int r = 0; r < 8; ++r) {
        acc[r] = _mm512_add_pd(
            acc[r], _mm512_mul_pd(_mm512_set1_pd(arow[r] * wi), bv));
      }
    }
    double* ob = od + p * 64;
    for (int r = 0; r < 8; ++r) {
      double* orow = ob + r * 8;
      _mm512_storeu_pd(orow, _mm512_add_pd(_mm512_loadu_pd(orow), acc[r]));
    }
  }
}

/// dw-only backward for B in {4, 5, 8}: per pair, transpose the
/// gradient block once, then every row builds S_r = sum_c g(r, c) b(c)
/// as an ascending-c FMA chain over column vectors and collapses
/// sum_r a(r) S_r through the fixed _mm512_reduce_add_pd tree.
/// dwd[i] accumulates one pair contribution at a time (ascending p) —
/// tolerance-bounded against baseline, chunk-invariant within level.
template <int B>
void BlockCrossGradDwImpl(const double* __restrict gd,
                          const double* __restrict fd, double* __restrict dwd,
                          int64_t fcols, const std::pair<int64_t, int64_t>* pd,
                          int64_t num_pairs, int64_t r0, int64_t r1) {
  static_assert(B == 5 || B == 8, "unsupported block");
  const __mmask8 mask = B == 8 ? static_cast<__mmask8>(0xFF) : kMask5;
  for (int64_t p = 0; p < num_pairs; ++p) {
    const int64_t ca = pd[p].first * B;
    const int64_t cb = pd[p].second * B;
    const double* gblock = gd + p * B * B;
    double gt[B * B];
    for (int r = 0; r < B; ++r) {
      for (int c = 0; c < B; ++c) gt[c * B + r] = gblock[r * B + c];
    }
    for (int64_t i = r0; i < r1; ++i) {
      const double* frow = fd + i * fcols;
      const double* brow = frow + cb;
      __m512d s = _mm512_setzero_pd();
      for (int c = 0; c < B; ++c) {
        const __m512d gcol = _mm512_maskz_loadu_pd(mask, gt + c * B);
        s = _mm512_fmadd_pd(_mm512_set1_pd(brow[c]), gcol, s);
      }
      const __m512d av = _mm512_maskz_loadu_pd(mask, frow + ca);
      dwd[i] += _mm512_reduce_add_pd(_mm512_mul_pd(av, s));
    }
  }
}

/// dw-only backward for B = 4 with 256-bit lanes and the AVX2
/// fixed-shape horizontal sum (v0+v2)+(v1+v3).
void BlockCrossGradDw4(const double* __restrict gd,
                       const double* __restrict fd, double* __restrict dwd,
                       int64_t fcols, const std::pair<int64_t, int64_t>* pd,
                       int64_t num_pairs, int64_t r0, int64_t r1) {
  for (int64_t p = 0; p < num_pairs; ++p) {
    const int64_t ca = pd[p].first * 4;
    const int64_t cb = pd[p].second * 4;
    const double* gblock = gd + p * 16;
    double gt[16];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) gt[c * 4 + r] = gblock[r * 4 + c];
    }
    for (int64_t i = r0; i < r1; ++i) {
      const double* frow = fd + i * fcols;
      const double* brow = frow + cb;
      __m256d s = _mm256_setzero_pd();
      for (int c = 0; c < 4; ++c) {
        s = _mm256_fmadd_pd(_mm256_set1_pd(brow[c]),
                            _mm256_loadu_pd(gt + c * 4), s);
      }
      const __m256d acc = _mm256_mul_pd(_mm256_loadu_pd(frow + ca), s);
      const __m128d lo = _mm256_castpd256_pd128(acc);
      const __m128d hi = _mm256_extractf128_pd(acc, 1);
      const __m128d pair = _mm_add_pd(lo, hi);
      const __m128d swap = _mm_unpackhi_pd(pair, pair);
      dwd[i] += _mm_cvtsd_f64(_mm_add_sd(pair, swap));
    }
  }
}

}  // namespace

void Avx512BlockCrossFwdGeneric(const double* ad, int64_t acols,
                                const double* bd, int64_t bcols,
                                const double* wd, double* od, int64_t n,
                                int64_t block,
                                const std::pair<int64_t, int64_t>* pd,
                                int64_t p0, int64_t p1) {
  // Generic any-block-size pair forward: baseline loop order with
  // 8-lane zmm vectors over the independent output columns only
  // (separate multiply and add, scalar tail repeating the same chain),
  // so every output element keeps the baseline's ascending-(i, r)
  // accumulation chain — bitwise == sliced MatmulTransA.
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * block;
    const int64_t cb = pd[p].second * block;
    double* oblock = od + p * block * block;
    for (int64_t i = 0; i < n; ++i) {
      const double* arow = ad + i * acols + ca;
      const double* brow = bd + i * bcols + cb;
      const double wi = wd != nullptr ? wd[i] : 0.0;
      for (int64_t r = 0; r < block; ++r) {
        const double av = wd != nullptr ? arow[r] * wi : arow[r];
        const __m512d avv = _mm512_set1_pd(av);
        double* orow = oblock + r * block;
        int64_t c = 0;
        for (; c + 8 <= block; c += 8) {
          const __m512d bv = _mm512_loadu_pd(brow + c);
          const __m512d ov = _mm512_loadu_pd(orow + c);
          _mm512_storeu_pd(orow + c,
                           _mm512_add_pd(ov, _mm512_mul_pd(avv, bv)));
        }
        for (; c < block; ++c) orow[c] += av * brow[c];
      }
    }
  }
}

bool Avx512BlockCrossFwd(int64_t block, const double* fd, const double* wd,
                         double* od, int64_t n, int64_t fcols,
                         const std::pair<int64_t, int64_t>* pd, int64_t p0,
                         int64_t p1) {
  switch (block) {
    case 4: BlockCrossFwd4(fd, wd, od, n, fcols, pd, p0, p1); return true;
    case 5: BlockCrossFwd5(fd, wd, od, n, fcols, pd, p0, p1); return true;
    case 8: BlockCrossFwd8(fd, wd, od, n, fcols, pd, p0, p1); return true;
    default: return false;  // kernels.cc falls back to baseline
  }
}

bool Avx512BlockCrossGradDw(int64_t block, const double* gd, const double* fd,
                            double* dwd, int64_t fcols,
                            const std::pair<int64_t, int64_t>* pd,
                            int64_t num_pairs, int64_t r0, int64_t r1) {
  switch (block) {
    case 4:
      BlockCrossGradDw4(gd, fd, dwd, fcols, pd, num_pairs, r0, r1);
      return true;
    case 5:
      BlockCrossGradDwImpl<5>(gd, fd, dwd, fcols, pd, num_pairs, r0, r1);
      return true;
    case 8:
      BlockCrossGradDwImpl<8>(gd, fd, dwd, fcols, pd, num_pairs, r0, r1);
      return true;
    default: return false;
  }
}

void Avx512Elu(double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, EluLanes(_mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    // Masked tail: the absent lanes load as +0.0 and are never stored.
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(x + i, tail,
                          EluLanes(_mm512_maskz_loadu_pd(tail, x + i)));
  }
}

void Avx512EluGrad(const double* g, const double* y, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, EluGradLanes(_mm512_loadu_pd(g + i),
                                           _mm512_loadu_pd(y + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        out + i, tail,
        EluGradLanes(_mm512_maskz_loadu_pd(tail, g + i),
                     _mm512_maskz_loadu_pd(tail, y + i)));
  }
}

void Avx512ScaledCos(double* x, int64_t n, double scale) {
  const __m512d s = _mm512_set1_pd(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i,
                     _mm512_mul_pd(s, _ZGVeN8v_cos(_mm512_loadu_pd(x + i))));
  }
  if (i < n) {
    // Masked tail: the absent lanes load as +0.0 and are never stored.
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        x + i, tail,
        _mm512_mul_pd(s, _ZGVeN8v_cos(_mm512_maskz_loadu_pd(tail, x + i))));
  }
}

}  // namespace linalg_kernels
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX512 && __AVX512F__ && __AVX512VL__
