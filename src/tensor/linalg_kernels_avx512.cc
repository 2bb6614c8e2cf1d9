// AVX-512 (x86-64-v4) kernel set of the ISA-dispatch tables, compiled
// with -march=x86-64-v4 -ffp-contract=off (see linalg_kernels_avx2.cc
// for why the contract flag is load-bearing). The bodies of
// linalg_kernels_wide.inc are instantiated over Avx512Lanes (8-lane
// zmm: masked tails, gather / scatter column tiles, vcvtuqq2pd); this
// file keeps trans-B's eight-row branch for m < 4 and the masked-zmm
// B = 5 block forward. Same determinism split as the AVX2 set, trans-B
// collapsing through _mm512_reduce_add_pd's fixed tree (ReduceAdd8 for
// eight accumulators at once). The block-cross dw entry of this level's
// table is the AVX2 kernel (kernels.cc): at B = 5 a 512-bit lane would
// run 3/8 empty, and the 256-bit 4 + 1 split is faster.

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

/// _mm512_reduce_add_pd of eight accumulators at once: lane e of the
/// result reduces c_e through the same tree (upper plus lower half at
/// 256, then 128 bits, then the two remaining lanes), so every lane is
/// bitwise the scalar reduction of its accumulator, at ~21 shuffles and
/// adds for all eight instead of ~6 each.
inline __m512d ReduceAdd8(const __m512d (&c)[8]) {
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
  const __m512d even = quarters(halves(c[0], c[2]), halves(c[4], c[6]));
  const __m512d odd = quarters(halves(c[1], c[3]), halves(c[5], c[7]));
  return _mm512_add_pd(_mm512_unpacklo_pd(even, odd),
                       _mm512_unpackhi_pd(even, odd));
}

/// The 8-lane zmm policy of linalg_kernels_wide.inc.
struct Avx512Lanes {
  using V = __m512d;
  using W = __m512i;
  static constexpr int kLanes = 8;
  static constexpr int kRegisters = 32;

  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V Set1(double x) { return _mm512_set1_pd(x); }
  static V Zero() { return _mm512_setzero_pd(); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V Min(V a, V b) { return _mm512_min_pd(a, b); }

  /// Tails go through a lane mask.
  static __mmask8 TailMask(int64_t n) {
    return static_cast<__mmask8>((1u << n) - 1u);
  }
  static V LoadTail(const double* p, int64_t n) {
    return _mm512_maskz_loadu_pd(TailMask(n), p);
  }
  static void StoreTail(double* p, int64_t n, V v) {
    _mm512_mask_storeu_pd(p, TailMask(n), v);
  }
  static __m512i ColumnIndex(int64_t m) {
    return _mm512_set_epi64(7 * m, 6 * m, 5 * m, 4 * m, 3 * m, 2 * m, m, 0);
  }
  static V LoadColumn(const double* o, int64_t m) {
    return _mm512_i64gather_pd(ColumnIndex(m), o, 8);
  }
  static void StoreColumn(double* o, int64_t m, V v) {
    _mm512_i64scatter_pd(o, ColumnIndex(m), v, 8);
  }

  /// ELU and its backward; see Avx2Lanes.
  static V Elu(V v) {
    const __mmask8 pos = _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_GT_OQ);
    return _mm512_mask_blend_pd(pos, _ZGVeN8v_expm1(_mm512_maskz_mov_pd(~pos, v)),
                                v);
  }
  static V EluGrad(V g, V y) {
    const V one = _mm512_set1_pd(1.0);
    const __mmask8 pos = _mm512_cmp_pd_mask(y, _mm512_setzero_pd(), _CMP_GT_OQ);
    return _mm512_mul_pd(g,
                         _mm512_mask_blend_pd(pos, _mm512_add_pd(y, one), one));
  }
  static V Cos(V v) { return _ZGVeN8v_cos(v); }

  static double Hsum(V v) { return _mm512_reduce_add_pd(v); }
  /// t = [t00 t01 t02 t03 | t10 t11 t12 t13], each lane bitwise
  /// _mm512_reduce_add_pd of its accumulator; the remainder and the
  /// final add to the output stay per-lane multiply-then-add.
  static void PanelFinish(const V (&c)[8], const double* a0, const double* a1,
                          const double* const (&b)[4], int64_t k, int64_t p,
                          double* o0, double* o1) {
    V t = ReduceAdd8(c);
    for (; p < k; ++p) {
      const V av = _mm512_insertf64x4(_mm512_set1_pd(a0[p]),
                                      _mm256_set1_pd(a1[p]), 1);
      const V bv = _mm512_broadcast_f64x4(
          _mm256_set_pd(b[3][p], b[2][p], b[1][p], b[0][p]));
      t = _mm512_add_pd(t, _mm512_mul_pd(av, bv));
    }
    _mm256_storeu_pd(o0, _mm256_add_pd(_mm256_loadu_pd(o0),
                                       _mm512_castpd512_pd256(t)));
    _mm256_storeu_pd(o1, _mm256_add_pd(_mm256_loadu_pd(o1),
                                       _mm512_extractf64x4_pd(t, 1)));
  }

  static W LoadW(const uint64_t* p) { return _mm512_loadu_si512(p); }
  static void StoreW(uint64_t* p, W w) { _mm512_storeu_si512(p, w); }
  static W Set1W(uint64_t v) {
    return _mm512_set1_epi64(static_cast<int64_t>(v));
  }
  static W And(W a, W b) { return _mm512_and_si512(a, b); }
  static W AndNot(W a, W b) { return _mm512_andnot_si512(a, b); }
  static W Or(W a, W b) { return _mm512_or_si512(a, b); }
  static W Xor(W a, W b) { return _mm512_xor_si512(a, b); }
  static W SubW(W a, W b) { return _mm512_sub_epi64(a, b); }
  template <int S>
  static W Srl(W v) { return _mm512_srli_epi64(v, S); }
  template <int S>
  static W Sll(W v) { return _mm512_slli_epi64(v, S); }
  /// vcvtuqq2pd rounds double(u) to nearest.
  static V ToDouble(W u) { return _mm512_cvtepu64_pd(u); }
};

#include "tensor/linalg_kernels_wide.inc"

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
  TransARows<Avx512Lanes>(ad, bd, od, k, n, m, r0, r1);
}

void Avx512MatmulTransBRows(const double* __restrict ad,
                            const double* __restrict bd, double* __restrict od,
                            int64_t k, int64_t m, int64_t r0, int64_t r1) {
  int64_t i = r0;
  if (m < 4) {
    // Too few output columns for a panel (the m = 1 weight-gradient
    // shape above all): eight A rows share each B row's pass instead,
    // and ReduceAdd8 collapses their eight Dot chains at once.
    for (; i + 8 <= r1; i += 8) {
      const double* a0 = ad + i * k;
      for (int64_t j = 0; j < m; ++j) {
        const double* brow = bd + j * k;
        __m512d c[8] = {};
        int64_t p = 0;
        for (; p + 8 <= k; p += 8) {
          const __m512d bv = _mm512_loadu_pd(brow + p);
          for (int r = 0; r < 8; ++r) {
            c[r] = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + r * k + p), bv, c[r]);
          }
        }
        __m512d t = ReduceAdd8(c);
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
  TransBRows<Avx512Lanes>(ad, bd, od, k, m, i, r1);
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

void Avx512Elu(double* x, int64_t n) { EluSweep<Avx512Lanes>(x, n); }

void Avx512EluGrad(const double* g, const double* y, double* out, int64_t n) {
  EluGradSweep<Avx512Lanes>(g, y, out, n);
}

void Avx512ScaledCos(double* x, int64_t n, double scale) {
  ScaledCosSweep<Avx512Lanes>(x, n, scale);
}

void Avx512Mt19937_64Refill(uint64_t* state, uint64_t* out,
                            double* canonical, double* coordinate) {
  Mt19937_64RefillLanes<Avx512Lanes>(state, out, canonical, coordinate);
}

}  // namespace linalg_kernels
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX512 && __AVX512F__ && __AVX512VL__ && __AVX512DQ__
