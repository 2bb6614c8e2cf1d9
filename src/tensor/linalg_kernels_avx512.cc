// AVX-512 (x86-64-v4) kernel set of the ISA-dispatch tables. Compiled
// with -march=x86-64-v4 -ffp-contract=off; see linalg_kernels_avx2.cc
// for why the contract flag is load-bearing. Same determinism split:
// MatmulRows / MatmulTransARows / BlockCrossFwd are bitwise identical
// to baseline (8-lane zmm over the independent output dimension,
// separate multiply and add, scalar tails repeating the same chain);
// MatmulTransBRows collapses FMA lanes through _mm512_reduce_add_pd's
// fixed reduction tree (for eight accumulators at once, ReduceAdd8) —
// so it is deterministic and chunk-invariant within this level but
// agrees with baseline only to rounding. The block-cross dw entry of
// this level's table is the AVX2 kernel (kernels.cc): at B = 5 a
// 512-bit lane would run 3/8 empty, and the 256-bit 4 + 1 split is
// faster. Mt19937_64Refill is integer lanes plus vcvtuqq2pd (AVX-512DQ,
// part of x86-64-v4), correctly rounded, so it is bitwise identical to
// the baseline refill.

#include "tensor/kernels_impl.h"

#if defined(SBRL_HAVE_ISA_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512VL__) && defined(__AVX512DQ__)

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
/// forward below keeps 5-wide rows in masked 8-lane registers.
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

namespace {

/// Register tile of out += a^T b: R output rows x V zmm column vectors
/// starting at (i, j). The tile is loaded from the output once, takes
/// its k terms in ascending p as a separate multiply and add (the
/// baseline chain, no FMA), and is stored once — the output never
/// leaves the registers inside the reduction.
template <int R, int V>
inline void TransATile(const double* __restrict ad, const double* __restrict bd,
                       double* __restrict od, int64_t k, int64_t n, int64_t m,
                       int64_t i, int64_t j) {
  __m512d acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm512_loadu_pd(od + (i + r) * m + j + 8 * v);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const double* brow = bd + p * m + j;
    const double* arow = ad + p * n + i;
    __m512d bv[V];
    for (int v = 0; v < V; ++v) bv[v] = _mm512_loadu_pd(brow + 8 * v);
    for (int r = 0; r < R; ++r) {
      const __m512d av = _mm512_set1_pd(arow[r]);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_add_pd(acc[r][v], _mm512_mul_pd(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      _mm512_storeu_pd(od + (i + r) * m + j + 8 * v, acc[r][v]);
    }
  }
}

/// Output column j of rows [i, i + 8 * V) with the lanes over ROWS —
/// the tail for columns past the last full zmm (the m = 1 output layer
/// above all): column j of a^T b is a matrix-vector product whose a
/// rows are contiguous. Same per-element chain as TransATile.
template <int V>
inline void TransAColumnTile(const double* __restrict ad,
                             const double* __restrict bd,
                             double* __restrict od, int64_t k, int64_t n,
                             int64_t m, int64_t i, int64_t j) {
  __m512d acc[V];
  const __m512i idx = _mm512_set_epi64(7 * m, 6 * m, 5 * m, 4 * m, 3 * m,
                                       2 * m, m, 0);
  for (int v = 0; v < V; ++v) {
    acc[v] = _mm512_i64gather_pd(idx, od + (i + 8 * v) * m + j, 8);
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m512d bv = _mm512_set1_pd(bd[p * m + j]);
    const double* arow = ad + p * n + i;
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(_mm512_loadu_pd(arow + 8 * v), bv));
    }
  }
  for (int v = 0; v < V; ++v) {
    _mm512_i64scatter_pd(od + (i + 8 * v) * m + j, idx, acc[v], 8);
  }
}

/// One row-group of R output rows over the vector columns [0, mv):
/// 32-column tiles (64 for a lone row, whose only independent chains
/// are its columns), then one zmm at a time.
template <int R>
inline void TransARowGroup(const double* __restrict ad,
                           const double* __restrict bd, double* __restrict od,
                           int64_t k, int64_t n, int64_t m, int64_t mv,
                           int64_t i) {
  constexpr int kWide = R == 1 ? 8 : 4;
  int64_t j = 0;
  for (; j + 8 * kWide <= mv; j += 8 * kWide) {
    TransATile<R, kWide>(ad, bd, od, k, n, m, i, j);
  }
  for (; j < mv; j += 8) TransATile<R, 1>(ad, bd, od, k, n, m, i, j);
}

}  // namespace

void Avx512MatmulTransARows(const double* __restrict ad,
                            const double* __restrict bd, double* __restrict od,
                            int64_t k, int64_t n, int64_t m, int64_t r0,
                            int64_t r1) {
  // Register-tiled: every output element is loaded once, receives its k
  // terms in the baseline's ascending-p multiply-then-add chain inside
  // a register and is stored once, so the result is bitwise the
  // baseline kernel's at any tiling, chunking or initial output.
  const int64_t mv = m - m % 8;
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) TransARowGroup<4>(ad, bd, od, k, n, m, mv, i);
  for (; i < r1; ++i) TransARowGroup<1>(ad, bd, od, k, n, m, mv, i);
  for (int64_t j = mv; j < m; ++j) {
    int64_t ic = r0;
    for (; ic + 32 <= r1; ic += 32) {
      TransAColumnTile<4>(ad, bd, od, k, n, m, ic, j);
    }
    for (; ic + 8 <= r1; ic += 8) {
      TransAColumnTile<1>(ad, bd, od, k, n, m, ic, j);
    }
    for (; ic < r1; ++ic) {
      double acc = od[ic * m + j];
      for (int64_t p = 0; p < k; ++p) acc += ad[p * n + ic] * bd[p * m + j];
      od[ic * m + j] = acc;
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

/// _mm512_reduce_add_pd of eight accumulators at once: lane e of the
/// result reduces c_e through the same tree (upper plus lower half at
/// 256, then 128 bits, then the two remaining lanes), so every lane is
/// bitwise the scalar reduction of its accumulator, at ~21 shuffles and
/// adds for all eight instead of ~6 each.
inline __m512d ReduceAdd8(__m512d c0, __m512d c1, __m512d c2, __m512d c3,
                          __m512d c4, __m512d c5, __m512d c6, __m512d c7) {
  // [a.lo256 + a.hi256 | b.lo256 + b.hi256]
  const auto halves = [](__m512d a, __m512d b) {
    return _mm512_add_pd(_mm512_shuffle_f64x2(a, b, 0x44),
                         _mm512_shuffle_f64x2(a, b, 0xEE));
  };
  // Per 256-bit half h of x and y: h.lo128 + h.hi128, as
  // [x.h0 | x.h1 | y.h0 | y.h1].
  const auto quarters = [](__m512d x, __m512d y) {
    return _mm512_add_pd(_mm512_shuffle_f64x2(x, y, 0x88),
                         _mm512_shuffle_f64x2(x, y, 0xDD));
  };
  const __m512d even = quarters(halves(c0, c2), halves(c4, c6));
  const __m512d odd = quarters(halves(c1, c3), halves(c5, c7));
  return _mm512_add_pd(_mm512_unpacklo_pd(even, odd),
                       _mm512_unpackhi_pd(even, odd));
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
  if (m < 4) {
    // Too few output columns for a panel (the m = 1 weight-gradient
    // shape above all): eight A rows share each B row's pass instead,
    // and ReduceAdd8 collapses their eight DotAvx512 chains at once.
    for (; i + 8 <= r1; i += 8) {
      const double* a0 = ad + i * k;
      for (int64_t j = 0; j < m; ++j) {
        const double* brow = bd + j * k;
        __m512d c[8];
        for (int r = 0; r < 8; ++r) c[r] = _mm512_setzero_pd();
        int64_t p = 0;
        for (; p + 8 <= k; p += 8) {
          const __m512d bv = _mm512_loadu_pd(brow + p);
          for (int r = 0; r < 8; ++r) {
            c[r] = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + r * k + p), bv, c[r]);
          }
        }
        __m512d t = ReduceAdd8(c[0], c[1], c[2], c[3], c[4], c[5], c[6],
                               c[7]);
        for (; p < k; ++p) {
          const __m512d av = _mm512_set_pd(
              a0[7 * k + p], a0[6 * k + p], a0[5 * k + p], a0[4 * k + p],
              a0[3 * k + p], a0[2 * k + p], a0[k + p], a0[p]);
          t = _mm512_add_pd(t, _mm512_mul_pd(av, _mm512_set1_pd(brow[p])));
        }
        alignas(64) double lanes[8];
        _mm512_store_pd(lanes, t);
        for (int r = 0; r < 8; ++r) od[(i + r) * m + j] += lanes[r];
      }
    }
  }
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
      // t = [t00 t01 t02 t03 | t10 t11 t12 t13], each lane bitwise
      // _mm512_reduce_add_pd of its accumulator; the scalar remainder
      // and the final add to the output stay per-lane multiply-then-add.
      __m512d t = ReduceAdd8(c00, c01, c02, c03, c10, c11, c12, c13);
      for (; p < k; ++p) {
        const __m512d av = _mm512_insertf64x4(_mm512_set1_pd(a0[p]),
                                              _mm256_set1_pd(a1[p]), 1);
        const __m512d bv = _mm512_broadcast_f64x4(
            _mm256_set_pd(b3[p], b2[p], b1[p], b0[p]));
        t = _mm512_add_pd(t, _mm512_mul_pd(av, bv));
      }
      _mm256_storeu_pd(o0 + j, _mm256_add_pd(_mm256_loadu_pd(o0 + j),
                                             _mm512_castpd512_pd256(t)));
      _mm256_storeu_pd(o1 + j,
                       _mm256_add_pd(_mm256_loadu_pd(o1 + j),
                                     _mm512_extractf64x4_pd(t, 1)));
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

/// Forward weighted cross for B = 5: masked 8-lane rows, five register
/// accumulators per pair, ascending-row chains bitwise the baseline's.
void Avx512BlockCrossFwd(const double* __restrict fd,
                         const double* __restrict wd, double* __restrict od,
                         int64_t n, int64_t fcols,
                         const std::pair<int64_t, int64_t>* pd, int64_t p0,
                         int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * 5;
    const int64_t cb = pd[p].second * 5;
    double* ob = od + p * 25;
    __m512d acc[5];
    for (int r = 0; r < 5; ++r) {
      acc[r] = _mm512_maskz_loadu_pd(kMask5, ob + r * 5);
    }
    // The a(r) * w_i products of a run of rows go through memory first,
    // so the row chains broadcast them with loads, not shuffles.
    constexpr int64_t kRun = 32;
    alignas(64) double av[kRun * 8];
    for (int64_t i0 = 0; i0 < n; i0 += kRun) {
      const int64_t run = std::min(kRun, n - i0);
      for (int64_t i = 0; i < run; ++i) {
        const double* frow = fd + (i0 + i) * fcols;
        _mm512_store_pd(av + i * 8,
                        _mm512_mul_pd(_mm512_maskz_loadu_pd(kMask5, frow + ca),
                                      _mm512_set1_pd(wd[i0 + i])));
      }
      for (int64_t i = 0; i < run; ++i) {
        const __m512d bv =
            _mm512_maskz_loadu_pd(kMask5, fd + (i0 + i) * fcols + cb);
        for (int r = 0; r < 5; ++r) {
          acc[r] = _mm512_add_pd(
              acc[r], _mm512_mul_pd(_mm512_set1_pd(av[i * 8 + r]), bv));
        }
      }
    }
    for (int r = 0; r < 5; ++r) {
      _mm512_mask_storeu_pd(ob + r * 5, kMask5, acc[r]);
    }
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

namespace {

/// One MT19937-64 twist step (the baseline kernel's scalar form). Each
/// kernel TU keeps its own copy: a shared inline function could be
/// linked from the TU built for the widest ISA.
inline uint64_t MtTwist(uint64_t hi_word, uint64_t lo_word, uint64_t far) {
  const uint64_t y = (hi_word & kMtUpper) | (lo_word & ~kMtUpper);
  return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMtMatrix);
}

/// Eight twist steps: words k..k+7 from the unaligned loads at k, k + 1
/// and the far offset.
inline __m512i MtTwistLanes(const uint64_t* hi_words, const uint64_t* far) {
  const __m512i upper = _mm512_set1_epi64(static_cast<int64_t>(kMtUpper));
  const __m512i hi = _mm512_loadu_si512(hi_words);
  const __m512i lo = _mm512_loadu_si512(hi_words + 1);
  const __m512i y = _mm512_or_si512(_mm512_and_si512(hi, upper),
                                    _mm512_andnot_si512(upper, lo));
  // y & 1 selects the twist matrix: a masked move of it where set.
  const __mmask8 odd = _mm512_test_epi64_mask(y, _mm512_set1_epi64(1));
  const __m512i mag = _mm512_maskz_mov_epi64(
      odd, _mm512_set1_epi64(static_cast<int64_t>(kMtMatrix)));
  const __m512i f = _mm512_loadu_si512(far);
  return _mm512_xor_si512(_mm512_xor_si512(f, _mm512_srli_epi64(y, 1)), mag);
}

/// Tempering of eight words.
inline __m512i MtTemperLanes(__m512i z) {
  z = _mm512_xor_si512(
      z, _mm512_and_si512(_mm512_srli_epi64(z, 29),
                          _mm512_set1_epi64(static_cast<int64_t>(kMtTemperD))));
  z = _mm512_xor_si512(
      z, _mm512_and_si512(_mm512_slli_epi64(z, 17),
                          _mm512_set1_epi64(static_cast<int64_t>(kMtTemperB))));
  z = _mm512_xor_si512(
      z, _mm512_and_si512(_mm512_slli_epi64(z, 37),
                          _mm512_set1_epi64(static_cast<int64_t>(kMtTemperC))));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 43));
}

}  // namespace

void Avx512Mt19937_64Refill(uint64_t* state, uint64_t* out,
                            double* canonical, double* coordinate) {
  uint64_t* x = state;
  // Each vector loads its words (and the next one) before it stores, so
  // the lanes read exactly what the scalar recurrence reads; a vector
  // never crosses from the first index range into the second, nor
  // loads past the last word.
  int k = 0;
  for (; k + 8 <= kMtWords - kMtShift; k += 8) {
    _mm512_storeu_si512(x + k, MtTwistLanes(x + k, x + k + kMtShift));
  }
  for (; k < kMtWords - kMtShift; ++k) {
    x[k] = MtTwist(x[k], x[k + 1], x[k + kMtShift]);
  }
  for (; k + 8 < kMtWords; k += 8) {
    _mm512_storeu_si512(x + k,
                        MtTwistLanes(x + k, x + k + kMtShift - kMtWords));
  }
  for (; k < kMtWords - 1; ++k) {
    x[k] = MtTwist(x[k], x[k + 1], x[k + kMtShift - kMtWords]);
  }
  x[kMtWords - 1] = MtTwist(x[kMtWords - 1], x[0], x[kMtShift - 1]);
  // vcvtuqq2pd rounds double(u) to nearest, as the baseline's
  // hi * 2^32 + lo does; min() is the clamp below 1.
  const __m512d scale = _mm512_set1_pd(0x1p-64);
  const __m512d below_one = _mm512_set1_pd(0x1.fffffffffffffp-1);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two = _mm512_set1_pd(2.0);
  for (k = 0; k < kMtWords; k += 8) {
    const __m512i z = MtTemperLanes(_mm512_loadu_si512(x + k));
    _mm512_storeu_si512(out + k, z);
    const __m512d c =
        _mm512_min_pd(_mm512_mul_pd(_mm512_cvtepu64_pd(z), scale), below_one);
    _mm512_storeu_pd(canonical + k, c);
    _mm512_storeu_pd(coordinate + k,
                     _mm512_sub_pd(_mm512_mul_pd(two, c), one));
  }
}

}  // namespace linalg_kernels
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX512 && __AVX512F__ && __AVX512VL__ && __AVX512DQ__
