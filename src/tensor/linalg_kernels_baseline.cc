// Baseline (portable x86-64 / SSE2) kernel set of the ISA-dispatch
// tables: the pre-dispatch inner loops of tensor/linalg.cc, moved here
// VERBATIM and compiled with the project's default flags. This file is
// the bitwise anchor of the determinism contract — SBRL_ISA=baseline
// must reproduce the pre-dispatch kernels bit for bit, so nothing in
// here may be "improved". Wider-ISA variants live in
// linalg_kernels_avx2.cc / linalg_kernels_avx512.cc.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "tensor/kernels.h"
#include "tensor/kernels_impl.h"

namespace sbrl {
namespace linalg_kernels {

namespace {

// The j-panel keeps a (k x kJBlock) slab of B hot in L2 across every
// row of an i-range.
constexpr int64_t kJBlock = 128;

// The block-cross kernels take blocks of B = kBlockCrossWidth = 5
// columns (tensor/kernels.h), a compile-time width: the compiler fully
// unrolls the B x B body and keeps the per-pair accumulators in
// registers.
constexpr int64_t kB = kBlockCrossWidth;

}  // namespace

/// Forward pairs [p0, p1): out block p += sum_i w_i u_a(i,:)^T u_b(i,:)
/// with the (B x B) accumulator loaded from the output, held in
/// registers across the row sweep and stored once. Each element takes
/// its row terms in ascending order and continues from the stored
/// partial sum, so a caller may sweep the rows in consecutive blocks
/// and get the bits of one call.
void BaselineBlockCrossFwd(const double* __restrict fd,
                           const double* __restrict wd,
                           double* __restrict od, int64_t n, int64_t fcols,
                           const std::pair<int64_t, int64_t>* pd, int64_t p0,
                           int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * kB;
    const int64_t cb = pd[p].second * kB;
    double* oblock = od + p * kB * kB;
    double acc[kB * kB];
    for (int64_t e = 0; e < kB * kB; ++e) acc[e] = oblock[e];
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      const double* arow = frow + ca;
      const double* brow = frow + cb;
      for (int64_t r = 0; r < kB; ++r) {
        const double av = arow[r] * wi;
        for (int64_t c = 0; c < kB; ++c) acc[r * kB + c] += av * brow[c];
      }
    }
    for (int64_t e = 0; e < kB * kB; ++e) oblock[e] = acc[e];
  }
}

/// Weight-gradient-only backward over rows [r0, r1): the hot case of
/// the decorrelation loss, where the stacked features are tape
/// constants and only dw is needed. dw_i = sum_p u_a(i,:) g_p u_b(i,:)^T
/// (the sample weight itself does not enter its own gradient), one flat
/// ascending-p sum per row.
void BaselineBlockCrossGradDw(const double* __restrict gd,
                              const double* __restrict fd,
                              double* __restrict dwd, int64_t fcols,
                              const std::pair<int64_t, int64_t>* pd,
                              int64_t num_pairs, int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const double* frow = fd + i * fcols;
    double dw_acc = 0.0;
    for (int64_t p = 0; p < num_pairs; ++p) {
      const double* arow = frow + pd[p].first * kB;
      const double* brow = frow + pd[p].second * kB;
      const double* gblock = gd + p * kB * kB;
      for (int64_t r = 0; r < kB; ++r) {
        const double* grow = gblock + r * kB;
        double s = 0.0;
        for (int64_t c = 0; c < kB; ++c) s += grow[c] * brow[c];
        dw_acc += arow[r] * s;
      }
    }
    dwd[i] += dw_acc;
  }
}

// The hot kernels keep __restrict parameters rather than lambda
// captures: stores through a pointer captured in a closure could alias
// the closure itself, which blocks vectorization and register-caching
// of the loop state.

#define SBRL_MATMUL_ROWS_KERNEL_NAME BaselineMatmulRows
#include "tensor/matmul_rows_kernel.inc"
#undef SBRL_MATMUL_ROWS_KERNEL_NAME

void BaselineMatmulTransARows(const double* __restrict ad,
                              const double* __restrict bd,
                              double* __restrict od, int64_t k, int64_t n,
                              int64_t m, int64_t r0, int64_t r1) {
  // The reduction index p stays outermost and ascending for every
  // element.
  for (int64_t p = 0; p < k; ++p) {
    const double* acol = ad + p * n;
    const double* brow = bd + p * m;
    for (int64_t i = r0; i < r1; ++i) {
      const double av = acol[i];
      double* orow = od + i * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

void BaselineMatmulTransBRows(const double* __restrict ad,
                              const double* __restrict bd,
                              double* __restrict od, int64_t k, int64_t m,
                              int64_t r0, int64_t r1) {
  // 2x2 micro-kernel: each loaded A/B row segment feeds two dot
  // products; accumulators are per-element, k ascending.
  int64_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const double* a0 = ad + i * k;
    const double* a1 = a0 + k;
    double* o0 = od + i * m;
    double* o1 = o0 + m;
    int64_t j = 0;
    for (; j + 2 <= m; j += 2) {
      const double* b0 = bd + j * k;
      const double* b1 = b0 + k;
      double acc00 = 0.0, acc01 = 0.0, acc10 = 0.0, acc11 = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double a0p = a0[p], a1p = a1[p];
        const double b0p = b0[p], b1p = b1[p];
        acc00 += a0p * b0p;
        acc01 += a0p * b1p;
        acc10 += a1p * b0p;
        acc11 += a1p * b1p;
      }
      o0[j] += acc00;
      o0[j + 1] += acc01;
      o1[j] += acc10;
      o1[j + 1] += acc11;
    }
    for (; j < m; ++j) {
      const double* brow = bd + j * k;
      double acc0 = 0.0, acc1 = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc0 += a0[p] * brow[p];
        acc1 += a1[p] * brow[p];
      }
      o0[j] += acc0;
      o1[j] += acc1;
    }
  }
  for (; i < r1; ++i) {
    const double* arow = ad + i * k;
    double* orow = od + i * m;
    for (int64_t j = 0; j < m; ++j) {
      const double* brow = bd + j * k;
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] += acc;
    }
  }
}

void BaselineElu(double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : std::expm1(x[i]);
}

void BaselineEluGrad(const double* g, const double* y, double* out,
                     int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = g[i] * (y[i] > 0.0 ? 1.0 : y[i] + 1.0);
  }
}

void BaselineScaledCos(double* x, int64_t n, double scale) {
  for (int64_t i = 0; i < n; ++i) x[i] = scale * std::cos(x[i]);
}

/// The std::mersenne_twister_engine recurrence with the `y & 1 ? a : 0`
/// select written as a mask, in the same three index ranges so each
/// loop reads only words the recurrence has already settled. The
/// conversion forms double(u) as the correctly rounded sum hi * 2^32 +
/// lo of two exact halves (no sign-bit branch); the only rounding is
/// that add, so even a fused multiply-add could not change it.
void BaselineMt19937_64Refill(uint64_t* state, uint64_t* out,
                              double* canonical, double* coordinate) {
  constexpr uint64_t kLower = ~kMtUpper;
  uint64_t* x = state;
  const auto twist = [](uint64_t hi_word, uint64_t lo_word, uint64_t far) {
    const uint64_t y = (hi_word & kMtUpper) | (lo_word & kLower);
    return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMtMatrix);
  };
  for (int k = 0; k < kMtWords - kMtShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kMtShift]);
  }
  for (int k = kMtWords - kMtShift; k < kMtWords - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kMtShift - kMtWords]);
  }
  x[kMtWords - 1] = twist(x[kMtWords - 1], x[0], x[kMtShift - 1]);
  for (int k = 0; k < kMtWords; ++k) {
    uint64_t z = x[k];
    z ^= (z >> 29) & kMtTemperD;
    z ^= (z << 17) & kMtTemperB;
    z ^= (z << 37) & kMtTemperC;
    z ^= z >> 43;
    out[k] = z;
    const double hi = static_cast<double>(static_cast<uint32_t>(z >> 32));
    const double lo = static_cast<double>(static_cast<uint32_t>(z));
    const double r = (hi * 0x1p32 + lo) * 0x1p-64;
    const double c = r < 1.0 ? r : 0x1.fffffffffffffp-1;
    canonical[k] = c;
    coordinate[k] = 2.0 * c - 1.0;
  }
}

}  // namespace linalg_kernels
}  // namespace sbrl
