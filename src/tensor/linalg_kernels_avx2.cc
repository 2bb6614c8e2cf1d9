// AVX2 (x86-64-v3) kernel set of the ISA-dispatch tables. Compiled with
// -march=x86-64-v3 -ffp-contract=off (see CMakeLists.txt): the contract
// flag matters — GCC lowers _mm256_add_pd(_mm256_mul_pd(x, y), z) to a
// source-level (x*y)+z vector expression and would otherwise fuse it
// into an FMA, silently changing bits.
//
// The trans-A, trans-B, ELU, ELU-grad, scaled-cosine and MT19937-64
// bodies are the lane-policy templates of linalg_kernels_wide.inc,
// instantiated here over Avx2Lanes (4-lane ymm); the matmul tile is the
// shared baseline source of matmul_rows_kernel.inc. What stays in this
// file is the policy and the two B = 5 block-cross kernels.
//
// Determinism split (tensor/kernels.h):
//  - MatmulRows / MatmulTransARows / BlockCrossFwd vectorize ONLY the
//    independent output dimension and keep each output element's
//    multiply-then-add chain in the baseline's ascending reduction
//    order, so they are bitwise identical to the baseline kernels
//    (vector lanes are IEEE-correctly-rounded per element, exactly like
//    the scalar ops). Scalar tails repeat the same chain.
//  - MatmulTransBRows / BlockCrossGradDw are dot-product shaped: lanes
//    accumulate with explicit FMA and collapse through a fixed-shape
//    horizontal sum, so they agree with baseline to rounding only
//    (bounded by tests/cpu_dispatch_test.cc) but are deterministic and
//    chunk-invariant within this level: every output element is
//    computed by the identical operation sequence no matter how
//    ParallelFor split the range.
//  - Mt19937_64Refill is integer lanes plus a correctly rounded
//    conversion, so it is bitwise identical to the baseline refill.

#include "tensor/kernels_impl.h"

#if defined(SBRL_HAVE_ISA_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

// libmvec's 4-lane AVX2 expm1 (glibc >= 2.35) and cos, called
// directly: each lane's result depends on that lane's input alone.
extern "C" __m256d _ZGVdN4v_expm1(__m256d);
extern "C" __m256d _ZGVdN4v_cos(__m256d);

namespace sbrl {
namespace linalg_kernels {

namespace {

// Same j-panel width as the baseline kernel: a (k x 128) slab of B
// stays hot in L2 across the rows of an i-range.
constexpr int64_t kJBlock = 128;

/// The 4-lane ymm policy of linalg_kernels_wide.inc.
struct Avx2Lanes {
  using V = __m256d;
  using W = __m256i;
  static constexpr int kLanes = 4;
  static constexpr int kRegisters = 16;

  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V Set1(double x) { return _mm256_set1_pd(x); }
  static V Zero() { return _mm256_setzero_pd(); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V Min(V a, V b) { return _mm256_min_pd(a, b); }

  /// Tails go through a zero-padded copy.
  static V LoadTail(const double* p, int64_t n) {
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(p, p + n, pad);
    return Load(pad);
  }
  static void StoreTail(double* p, int64_t n, V v) {
    double pad[4];
    Store(pad, v);
    std::copy(pad, pad + n, p);
  }
  static V LoadColumn(const double* o, int64_t m) {
    return _mm256_set_pd(o[3 * m], o[2 * m], o[m], o[0]);
  }
  static void StoreColumn(double* o, int64_t m, V v) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    for (int l = 0; l < 4; ++l) o[l * m] = lanes[l];
  }

  /// ELU: the ordered compare x > 0 passes positive lanes through and
  /// sends the rest (negatives, -0.0, -inf, NaN) to expm1; positive
  /// lanes enter expm1 as +0.0 so they never take its slow path.
  static V Elu(V v) {
    const V pos = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
    return _mm256_blendv_pd(_ZGVdN4v_expm1(_mm256_andnot_pd(pos, v)), v, pos);
  }
  /// ELU backward: g * (y > 0 ? 1 : y + 1), the ordered compare sending
  /// NaN y to y + 1. Every step is exact per lane, so the lanes match
  /// the baseline's scalar formula bit for bit.
  static V EluGrad(V g, V y) {
    const V one = _mm256_set1_pd(1.0);
    const V pos = _mm256_cmp_pd(y, _mm256_setzero_pd(), _CMP_GT_OQ);
    return _mm256_mul_pd(g, _mm256_blendv_pd(_mm256_add_pd(y, one), one, pos));
  }
  static V Cos(V v) { return _ZGVdN4v_cos(v); }

  /// Fixed-shape horizontal sum: (v0 + v2) + (v1 + v3). Every
  /// dot-shaped kernel in this file collapses its lanes through this
  /// exact tree, so a given element's bits never depend on the call
  /// site.
  static double Hsum(V v) {
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(v),
                                    _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
  /// Each chain through Hsum, then its scalar remainder, then the add
  /// to the output (plain row loops: GCC 12 -O3 -fsanitize=undefined
  /// miscompiled a ternary row pointer here).
  static void PanelFinish(const V (&c)[8], const double* a0, const double* a1,
                          const double* const (&b)[4], int64_t k, int64_t p,
                          double* o0, double* o1) {
    double t[8];
    for (int e = 0; e < 8; ++e) t[e] = Hsum(c[e]);
    for (; p < k; ++p) {
      for (int q = 0; q < 4; ++q) {
        t[q] += a0[p] * b[q][p];
        t[4 + q] += a1[p] * b[q][p];
      }
    }
    for (int q = 0; q < 4; ++q) {
      o0[q] += t[q];
      o1[q] += t[4 + q];
    }
  }

  static W LoadW(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void StoreW(uint64_t* p, W w) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), w);
  }
  static W Set1W(uint64_t v) {
    return _mm256_set1_epi64x(static_cast<int64_t>(v));
  }
  static W And(W a, W b) { return _mm256_and_si256(a, b); }
  static W AndNot(W a, W b) { return _mm256_andnot_si256(a, b); }
  static W Or(W a, W b) { return _mm256_or_si256(a, b); }
  static W Xor(W a, W b) { return _mm256_xor_si256(a, b); }
  static W SubW(W a, W b) { return _mm256_sub_epi64(a, b); }
  template <int S>
  static W Srl(W v) { return _mm256_srli_epi64(v, S); }
  template <int S>
  static W Sll(W v) { return _mm256_slli_epi64(v, S); }
  /// Each 32-bit half becomes an exact double by OR-ing it into the
  /// mantissa of 2^52 and subtracting 2^52; hi * 2^32 + lo is then the
  /// baseline's correctly rounded sum.
  static V ToDouble(W u) {
    const W bias = Set1W(0x4330000000000000ULL);
    const V two52 = Set1(0x1p52);
    const V hi = Sub(_mm256_castsi256_pd(Or(Srl<32>(u), bias)), two52);
    const V lo = Sub(
        _mm256_castsi256_pd(Or(And(u, Set1W(0xffffffffULL)), bias)), two52);
    return Add(Mul(hi, Set1(0x1p32)), lo);
  }
};

#include "tensor/linalg_kernels_wide.inc"

}  // namespace

// The matmul tile kernel is the shared baseline SOURCE, auto-vectorized
// at this TU's -march level — measured faster here than a hand-written
// register-accumulator AVX kernel (whose serialized accumulator chains
// defeat out-of-order overlap across tiles) and bitwise identical to
// baseline by construction.
#define SBRL_MATMUL_ROWS_KERNEL_NAME Avx2MatmulRows
#include "tensor/matmul_rows_kernel.inc"
#undef SBRL_MATMUL_ROWS_KERNEL_NAME

void Avx2MatmulTransARows(const double* __restrict ad,
                          const double* __restrict bd, double* __restrict od,
                          int64_t k, int64_t n, int64_t m, int64_t r0,
                          int64_t r1) {
  TransARows<Avx2Lanes>(ad, bd, od, k, n, m, r0, r1);
}

void Avx2MatmulTransBRows(const double* __restrict ad,
                          const double* __restrict bd, double* __restrict od,
                          int64_t k, int64_t m, int64_t r0, int64_t r1) {
  TransBRows<Avx2Lanes>(ad, bd, od, k, m, r0, r1);
}

/// Forward weighted cross for B = 5: a 4-lane vector plus one scalar
/// column per output row, same ascending-row chains as baseline.
void Avx2BlockCrossFwd(const double* __restrict fd,
                       const double* __restrict wd, double* __restrict od,
                       int64_t n, int64_t fcols,
                       const std::pair<int64_t, int64_t>* pd, int64_t p0,
                       int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * 5;
    const int64_t cb = pd[p].second * 5;
    double* ob = od + p * 25;
    __m256d accv[5];
    double accs[5];
    for (int r = 0; r < 5; ++r) {
      accv[r] = _mm256_loadu_pd(ob + r * 5);
      accs[r] = ob[r * 5 + 4];
    }
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      const double* arow = frow + ca;
      const double* brow = frow + cb;
      const __m256d bv = _mm256_loadu_pd(brow);
      const double b4 = brow[4];
      for (int r = 0; r < 5; ++r) {
        const double av = arow[r] * wi;
        accv[r] = _mm256_add_pd(accv[r], _mm256_mul_pd(_mm256_set1_pd(av), bv));
        accs[r] += av * b4;
      }
    }
    for (int r = 0; r < 5; ++r) {
      _mm256_storeu_pd(ob + r * 5, accv[r]);
      ob[r * 5 + 4] = accs[r];
    }
  }
}

/// dw-only backward for B = 5: per pair, the gradient block is
/// transposed once (it is constant across the row range), then every
/// row computes S_r = sum_c g(r, c) b(c) as an ascending-c FMA chain
/// (lanes r = 0..3, a scalar chain for r = 4) and collapses
/// sum_r a(r) S_r through Avx2Lanes::Hsum plus the fifth term. dwd[i]
/// accumulates one pair contribution at a time (ascending p), which
/// regroups the baseline's flat sum — tolerance-bounded, chunk-
/// invariant.
void Avx2BlockCrossGradDw(const double* __restrict gd,
                          const double* __restrict fd,
                          double* __restrict dwd, int64_t fcols,
                          const std::pair<int64_t, int64_t>* pd,
                          int64_t num_pairs, int64_t r0, int64_t r1) {
  for (int64_t p = 0; p < num_pairs; ++p) {
    const int64_t ca = pd[p].first * 5;
    const int64_t cb = pd[p].second * 5;
    const double* gblock = gd + p * 25;
    // gt[c][r] = g(r, c): column c of the block as a contiguous row.
    double gt[25];
    for (int r = 0; r < 5; ++r) {
      for (int c = 0; c < 5; ++c) gt[c * 5 + r] = gblock[r * 5 + c];
    }
    for (int64_t i = r0; i < r1; ++i) {
      const double* frow = fd + i * fcols;
      const double* arow = frow + ca;
      const double* brow = frow + cb;
      __m256d s_lo = _mm256_setzero_pd();  // S_r for r = 0..3
      double s4 = 0.0;                     // S_4
      for (int c = 0; c < 5; ++c) {
        const double* gcol = gt + c * 5;
        s_lo = _mm256_fmadd_pd(_mm256_set1_pd(brow[c]), _mm256_loadu_pd(gcol),
                               s_lo);
        s4 += brow[c] * gcol[4];
      }
      double contrib =
          Avx2Lanes::Hsum(_mm256_mul_pd(_mm256_loadu_pd(arow), s_lo));
      contrib += arow[4] * s4;
      dwd[i] += contrib;
    }
  }
}

void Avx2Elu(double* x, int64_t n) { EluSweep<Avx2Lanes>(x, n); }

void Avx2EluGrad(const double* g, const double* y, double* out, int64_t n) {
  EluGradSweep<Avx2Lanes>(g, y, out, n);
}

void Avx2ScaledCos(double* x, int64_t n, double scale) {
  ScaledCosSweep<Avx2Lanes>(x, n, scale);
}

void Avx2Mt19937_64Refill(uint64_t* state, uint64_t* out, double* canonical,
                          double* coordinate) {
  Mt19937_64RefillLanes<Avx2Lanes>(state, out, canonical, coordinate);
}

}  // namespace linalg_kernels
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX2 && __AVX2__ && __FMA__
