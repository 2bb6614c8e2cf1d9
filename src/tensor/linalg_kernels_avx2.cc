// AVX2 (x86-64-v3) kernel set of the ISA-dispatch tables. Compiled with
// -march=x86-64-v3 -ffp-contract=off (see CMakeLists.txt): the contract
// flag matters — GCC lowers _mm256_add_pd(_mm256_mul_pd(x, y), z) to a
// source-level (x*y)+z vector expression and would otherwise fuse it
// into an FMA, silently changing bits.
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

/// ELU of four lanes: the ordered compare x > 0 passes positive lanes
/// through and sends the rest (negatives, -0.0, -inf, NaN) to expm1;
/// positive lanes enter expm1 as +0.0 so they never take its slow path.
inline __m256d EluLanes(__m256d v) {
  const __m256d pos = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
  const __m256d e = _ZGVdN4v_expm1(_mm256_andnot_pd(pos, v));
  return _mm256_blendv_pd(e, v, pos);
}

/// ELU backward of four lanes: g * (y > 0 ? 1 : y + 1), the ordered
/// compare sending NaN y to y + 1. Every step is exact per lane, so
/// the lanes match the baseline's scalar formula bit for bit.
inline __m256d EluGradLanes(__m256d g, __m256d y) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d pos = _mm256_cmp_pd(y, _mm256_setzero_pd(), _CMP_GT_OQ);
  return _mm256_mul_pd(g, _mm256_blendv_pd(_mm256_add_pd(y, one), one, pos));
}

/// Fixed-shape horizontal sum: (v0 + v2) + (v1 + v3). Every dot-shaped
/// kernel in this file collapses its lanes through this exact tree, so
/// a given element's bits never depend on the call site.
inline double Hsum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (v0+v2, v1+v3)
  const __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

}  // namespace

// The matmul tile kernel is the shared baseline SOURCE, auto-vectorized
// at this TU's -march level — measured faster here than a hand-written
// register-accumulator AVX kernel (whose serialized accumulator chains
// defeat out-of-order overlap across tiles) and bitwise identical to
// baseline by construction.
#define SBRL_MATMUL_ROWS_KERNEL_NAME Avx2MatmulRows
#include "tensor/matmul_rows_kernel.inc"
#undef SBRL_MATMUL_ROWS_KERNEL_NAME

namespace {

/// Register tile of out += a^T b: R output rows x V ymm column vectors
/// starting at (i, j). The tile is loaded from the output once, takes
/// its k terms in ascending p as a separate multiply and add (the
/// baseline chain, no FMA), and is stored once — the output never
/// leaves the registers inside the reduction.
template <int R, int V>
inline void TransATile(const double* __restrict ad, const double* __restrict bd,
                       double* __restrict od, int64_t k, int64_t n, int64_t m,
                       int64_t i, int64_t j) {
  __m256d acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm256_loadu_pd(od + (i + r) * m + j + 4 * v);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const double* brow = bd + p * m + j;
    const double* arow = ad + p * n + i;
    __m256d bv[V];
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_pd(brow + 4 * v);
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_set1_pd(arow[r]);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_pd(od + (i + r) * m + j + 4 * v, acc[r][v]);
    }
  }
}

/// Output column j of rows [i, i + 4 * V) with the lanes over ROWS —
/// the tail for columns past the last full ymm (the m = 1 output layer
/// above all): column j of a^T b is a matrix-vector product whose a
/// rows are contiguous. Same per-element chain as TransATile.
template <int V>
inline void TransAColumnTile(const double* __restrict ad,
                             const double* __restrict bd,
                             double* __restrict od, int64_t k, int64_t n,
                             int64_t m, int64_t i, int64_t j) {
  __m256d acc[V];
  for (int v = 0; v < V; ++v) {
    const double* o = od + (i + 4 * v) * m + j;
    acc[v] = _mm256_set_pd(o[3 * m], o[2 * m], o[m], o[0]);
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m256d bv = _mm256_set1_pd(bd[p * m + j]);
    const double* arow = ad + p * n + i;
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(_mm256_loadu_pd(arow + 4 * v), bv));
    }
  }
  for (int v = 0; v < V; ++v) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc[v]);
    double* o = od + (i + 4 * v) * m + j;
    for (int l = 0; l < 4; ++l) o[l * m] = lanes[l];
  }
}

/// One row-group of R output rows over the vector columns [0, mv):
/// 8-column tiles (32 for a lone row, whose only independent chains
/// are its columns), then one ymm at a time.
template <int R>
inline void TransARowGroup(const double* __restrict ad,
                           const double* __restrict bd, double* __restrict od,
                           int64_t k, int64_t n, int64_t m, int64_t mv,
                           int64_t i) {
  constexpr int kWide = R == 1 ? 8 : 2;
  int64_t j = 0;
  for (; j + 4 * kWide <= mv; j += 4 * kWide) {
    TransATile<R, kWide>(ad, bd, od, k, n, m, i, j);
  }
  for (; j < mv; j += 4) TransATile<R, 1>(ad, bd, od, k, n, m, i, j);
}

}  // namespace

void Avx2MatmulTransARows(const double* __restrict ad,
                          const double* __restrict bd, double* __restrict od,
                          int64_t k, int64_t n, int64_t m, int64_t r0,
                          int64_t r1) {
  // Register-tiled: every output element is loaded once, receives its k
  // terms in the baseline's ascending-p multiply-then-add chain inside
  // a register and is stored once, so the result is bitwise the
  // baseline kernel's at any tiling, chunking or initial output.
  const int64_t mv = m - m % 4;
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) TransARowGroup<4>(ad, bd, od, k, n, m, mv, i);
  for (; i < r1; ++i) TransARowGroup<1>(ad, bd, od, k, n, m, mv, i);
  for (int64_t j = mv; j < m; ++j) {
    int64_t ic = r0;
    for (; ic + 16 <= r1; ic += 16) {
      TransAColumnTile<4>(ad, bd, od, k, n, m, ic, j);
    }
    for (; ic + 4 <= r1; ic += 4) {
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

/// One (i, j) dot product over k: FMA lanes ascending p, Hsum256, then
/// the scalar remainder added last — the fixed evaluation order of
/// every TransB output element at this level.
inline double DotAvx2(const double* __restrict a, const double* __restrict b,
                      int64_t k) {
  __m256d acc = _mm256_setzero_pd();
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + p), _mm256_loadu_pd(b + p),
                          acc);
  }
  double total = Hsum256(acc);
  for (; p < k; ++p) total += a[p] * b[p];
  return total;
}

}  // namespace

void Avx2MatmulTransBRows(const double* __restrict ad,
                          const double* __restrict bd, double* __restrict od,
                          int64_t k, int64_t m, int64_t r0, int64_t r1) {
  // Blocked panel: 2 A rows x 4 B rows share one ascending-k pass, so
  // each 4-lane A load feeds four FMA chains and each B load two —
  // 6 loads per 8 FMAs instead of DotAvx2's 2 per 1. Every output
  // element still runs EXACTLY DotAvx2's operation sequence (its own
  // FMA-lane chain over ascending p, Hsum256, scalar remainder added
  // last), so the panel kernel is bitwise identical to the 2x2-of-dots
  // kernel it replaces and stays inside the TransB tolerance contract.
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
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c02 = _mm256_setzero_pd(), c03 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c12 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
      int64_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const __m256d va0 = _mm256_loadu_pd(a0 + p);
        const __m256d va1 = _mm256_loadu_pd(a1 + p);
        const __m256d vb0 = _mm256_loadu_pd(b0 + p);
        c00 = _mm256_fmadd_pd(va0, vb0, c00);
        c10 = _mm256_fmadd_pd(va1, vb0, c10);
        const __m256d vb1 = _mm256_loadu_pd(b1 + p);
        c01 = _mm256_fmadd_pd(va0, vb1, c01);
        c11 = _mm256_fmadd_pd(va1, vb1, c11);
        const __m256d vb2 = _mm256_loadu_pd(b2 + p);
        c02 = _mm256_fmadd_pd(va0, vb2, c02);
        c12 = _mm256_fmadd_pd(va1, vb2, c12);
        const __m256d vb3 = _mm256_loadu_pd(b3 + p);
        c03 = _mm256_fmadd_pd(va0, vb3, c03);
        c13 = _mm256_fmadd_pd(va1, vb3, c13);
      }
      double t00 = Hsum256(c00), t01 = Hsum256(c01);
      double t02 = Hsum256(c02), t03 = Hsum256(c03);
      double t10 = Hsum256(c10), t11 = Hsum256(c11);
      double t12 = Hsum256(c12), t13 = Hsum256(c13);
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
      o0[j] += DotAvx2(a0, brow, k);
      o1[j] += DotAvx2(a1, brow, k);
    }
  }
  for (; i < r1; ++i) {
    const double* arow = ad + i * k;
    double* orow = od + i * m;
    for (int64_t j = 0; j < m; ++j) {
      orow[j] += DotAvx2(arow, bd + j * k, k);
    }
  }
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
/// sum_r a(r) S_r through Hsum256 plus the fifth term. dwd[i]
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
      double contrib = Hsum256(_mm256_mul_pd(_mm256_loadu_pd(arow), s_lo));
      contrib += arow[4] * s4;
      dwd[i] += contrib;
    }
  }
}

void Avx2Elu(double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, EluLanes(_mm256_loadu_pd(x + i)));
  }
  if (i < n) {
    // Zero-padded copy: the tail runs through the same vector call.
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(x + i, x + n, pad);
    _mm256_storeu_pd(pad, EluLanes(_mm256_loadu_pd(pad)));
    std::copy(pad, pad + (n - i), x + i);
  }
}

void Avx2EluGrad(const double* g, const double* y, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, EluGradLanes(_mm256_loadu_pd(g + i),
                                           _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = g[i] * (y[i] > 0.0 ? 1.0 : y[i] + 1.0);
}

void Avx2ScaledCos(double* x, int64_t n, double scale) {
  const __m256d s = _mm256_set1_pd(scale);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i,
                     _mm256_mul_pd(s, _ZGVdN4v_cos(_mm256_loadu_pd(x + i))));
  }
  if (i < n) {
    // Zero-padded copy: the tail runs through the same vector call.
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(x + i, x + n, pad);
    _mm256_storeu_pd(pad,
                     _mm256_mul_pd(s, _ZGVdN4v_cos(_mm256_loadu_pd(pad))));
    std::copy(pad, pad + (n - i), x + i);
  }
}

}  // namespace linalg_kernels
}  // namespace sbrl

#endif  // SBRL_HAVE_ISA_AVX2 && __AVX2__ && __FMA__
