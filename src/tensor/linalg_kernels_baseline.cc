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

#include "tensor/kernels_impl.h"

namespace sbrl {
namespace linalg_kernels {

namespace {

// The j-panel keeps a (k x kJBlock) slab of B hot in L2 across every
// row of an i-range.
constexpr int64_t kJBlock = 128;

// The block-diagonal cross ops at the block size training runs
// (SbrlConfig::rff_features = 5) are compile-time instantiations: the
// runtime loops spend as much time on loop control as on arithmetic,
// while the template lets the compiler fully unroll the block x block
// body and keep the per-pair accumulators in registers. Each output
// element receives its terms in exactly the same ascending order as
// the any-block loop, so both paths are bitwise identical.

/// Forward pairs [p0, p1): out block p += sum_i w_i u_a(i,:)^T u_b(i,:)
/// with the (B x B) accumulator loaded from the output, held in
/// registers across the row sweep and stored once. Continuing from the
/// stored partial sum reproduces the any-block element-by-element
/// accumulation bitwise for any initial output, so a caller may sweep
/// the rows in consecutive blocks and get the bits of one call.
template <int64_t B>
void BlockCrossFwdPairsKernel(const double* __restrict fd,
                              const double* __restrict wd,
                              double* __restrict od, int64_t n,
                              int64_t fcols,
                              const std::pair<int64_t, int64_t>* pd,
                              int64_t p0, int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * B;
    const int64_t cb = pd[p].second * B;
    double* oblock = od + p * B * B;
    double acc[B * B];
    for (int64_t e = 0; e < B * B; ++e) acc[e] = oblock[e];
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      const double* arow = frow + ca;
      const double* brow = frow + cb;
      for (int64_t r = 0; r < B; ++r) {
        const double av = arow[r] * wi;
        for (int64_t c = 0; c < B; ++c) acc[r * B + c] += av * brow[c];
      }
    }
    for (int64_t e = 0; e < B * B; ++e) oblock[e] = acc[e];
  }
}

/// Weight-gradient-only backward over rows [r0, r1): the hot case of
/// the decorrelation loss, where the stacked features are tape
/// constants and only dw is needed. dw_i = sum_p u_a(i,:) g_p u_b(i,:)^T
/// (the sample weight itself does not enter its own gradient). Same
/// flat ascending-p summation as the any-block loop.
template <int64_t B>
void BlockCrossGradDwRowsKernel(const double* __restrict gd,
                                const double* __restrict fd,
                                double* __restrict dwd, int64_t fcols,
                                const std::pair<int64_t, int64_t>* pd,
                                int64_t num_pairs, int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const double* frow = fd + i * fcols;
    double dw_acc = 0.0;
    for (int64_t p = 0; p < num_pairs; ++p) {
      const double* arow = frow + pd[p].first * B;
      const double* brow = frow + pd[p].second * B;
      const double* gblock = gd + p * B * B;
      for (int64_t r = 0; r < B; ++r) {
        const double* grow = gblock + r * B;
        double s = 0.0;
        for (int64_t c = 0; c < B; ++c) s += grow[c] * brow[c];
        dw_acc += arow[r] * s;
      }
    }
    dwd[i] += dw_acc;
  }
}

}  // namespace

void BaselineBlockCrossFwd(int64_t block, const double* fd, const double* wd,
                           double* od, int64_t n, int64_t fcols,
                           const std::pair<int64_t, int64_t>* pd, int64_t p0,
                           int64_t p1) {
  if (block == 5) {
    BlockCrossFwdPairsKernel<5>(fd, wd, od, n, fcols, pd, p0, p1);
    return;
  }
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t ca = pd[p].first * block;
    const int64_t cb = pd[p].second * block;
    double* oblock = od + p * block * block;
    for (int64_t i = 0; i < n; ++i) {
      const double* frow = fd + i * fcols;
      const double* arow = frow + ca;
      const double* brow = frow + cb;
      const double wi = wd[i];
      for (int64_t r = 0; r < block; ++r) {
        const double av = arow[r] * wi;
        double* orow = oblock + r * block;
        for (int64_t c = 0; c < block; ++c) orow[c] += av * brow[c];
      }
    }
  }
}

void BaselineBlockCrossGradDw(int64_t block, const double* gd,
                              const double* fd, double* dwd, int64_t fcols,
                              const std::pair<int64_t, int64_t>* pd,
                              int64_t num_pairs, int64_t r0, int64_t r1) {
  if (block == 5) {
    BlockCrossGradDwRowsKernel<5>(gd, fd, dwd, fcols, pd, num_pairs, r0, r1);
    return;
  }
  for (int64_t i = r0; i < r1; ++i) {
    const double* frow = fd + i * fcols;
    double dw_acc = 0.0;
    for (int64_t p = 0; p < num_pairs; ++p) {
      const int64_t ca = pd[p].first * block;
      const int64_t cb = pd[p].second * block;
      const double* gblock = gd + p * block * block;
      for (int64_t r = 0; r < block; ++r) {
        const double* grow = gblock + r * block;
        double s = 0.0;
        for (int64_t c = 0; c < block; ++c) s += grow[c] * frow[cb + c];
        dw_acc += frow[ca + r] * s;
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

}  // namespace linalg_kernels
}  // namespace sbrl
