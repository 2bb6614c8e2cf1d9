#include "autodiff/ops_f32.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "tensor/linalg_f32.h"

namespace sbrl {
namespace ops {

namespace {

/// Float restatements of the activation policies in ops.cc (forward
/// only — these kernels are tape-free). Same formulas evaluated in
/// float math, sigmoid the stable split. ELU has no policy: both
/// callers run it as the vectorized EluF32InPlace sweep.
struct IdentityActF32 {
  static float F(float x) { return x; }
};
struct ReluActF32 {
  static float F(float x) { return x > 0.0f ? x : 0.0f; }
};
struct TanhActF32 {
  static float F(float x) { return std::tanh(x); }
};
struct SigmoidActF32 {
  static float F(float x) {
    if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
    const float e = std::exp(x);
    return e / (1.0f + e);
  }
};

/// Calls fn with the float activation policy selected by `act`.
template <typename Fn>
auto DispatchActF32(ActKind act, Fn&& fn) {
  switch (act) {
    case ActKind::kIdentity: return fn(IdentityActF32{});
    case ActKind::kRelu: return fn(ReluActF32{});
    case ActKind::kTanh: return fn(TanhActF32{});
    case ActKind::kSigmoid: return fn(SigmoidActF32{});
    case ActKind::kElu: break;  // the callers' EluF32InPlace sweep
  }
  SBRL_CHECK(false) << "unreachable";
  return fn(IdentityActF32{});
}

/// Row-parallel sweep mirroring ops.cc's RowwiseFor: serial below the
/// shared flop cutoff, disjoint row chunks above it.
template <typename Body>
void RowwiseForF32(int64_t rows, int64_t cols, Body body) {
  const int64_t cutoff = SerialCutoff();
  if (rows * cols <= cutoff) {
    body(static_cast<int64_t>(0), rows);
    return;
  }
  const int64_t grain =
      std::max<int64_t>(1, cutoff / std::max<int64_t>(1, cols));
  ParallelFor(0, rows, grain, body);
}

/// f32 fused bias + activation pass (see BiasActInPlace in ops.cc).
template <typename Act>
void BiasActF32InPlace(int64_t n, int64_t m, float* od, const float* bd) {
  RowwiseForF32(n, m, [od, bd, m](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* orow = od + r * m;
      for (int64_t c = 0; c < m; ++c) {
        orow[c] = Act::F(orow[c] + bd[c]);
      }
    }
  });
}

/// f32 frozen batch-norm + activation pass (see BnInferActInPlace).
template <typename Act>
void BnInferActF32InPlace(int64_t n, int64_t m, float* od, const float* md,
                          const float* sd, const float* gd, const float* bd) {
  RowwiseForF32(n, m, [od, md, sd, gd, bd, m](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t c = 0; c < m; ++c) {
        const int64_t i = r * m + c;
        const float h = (od[i] + -1.0f * md[c]) * sd[c];
        od[i] = Act::F(h * gd[c] + bd[c]);
      }
    }
  });
}

}  // namespace

MatrixF32 AffineActValueF32(const MatrixF32& x, const MatrixF32& w,
                            const MatrixF32& b, ActKind act) {
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK(b.rows() == 1 && b.cols() == w.cols());
  const int64_t n = x.rows(), m = w.cols();
  MatrixF32 out(n, m);
  MatmulF32Into(x, w, &out);
  if (act == ActKind::kElu) {
    // The serving hot path: bias add and the ELU through the per-ISA
    // vectorized exponential (common/simd.h) in one parallel pass.
    EluF32InPlace(out.data(), n * m, b.data(), m);
    return out;
  }
  DispatchActF32(act, [&](auto policy) {
    BiasActF32InPlace<decltype(policy)>(n, m, out.data(), b.data());
  });
  return out;
}

MatrixF32 AffineBatchNormInferActValueF32(
    const MatrixF32& x, const MatrixF32& w, const MatrixF32& b,
    const MatrixF32& gamma, const MatrixF32& beta,
    const MatrixF32& running_mean, const MatrixF32& running_var, double eps,
    ActKind act) {
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK(b.rows() == 1 && b.cols() == w.cols());
  SBRL_CHECK(gamma.rows() == 1 && gamma.cols() == w.cols());
  SBRL_CHECK(beta.same_shape(gamma));
  SBRL_CHECK(running_mean.rows() == 1 && running_mean.cols() == w.cols());
  SBRL_CHECK(running_var.same_shape(running_mean));
  const int64_t n = x.rows(), m = w.cols();
  MatrixF32 pre(n, m);
  MatmulF32Into(x, w, &pre);
  {
    float* pd = pre.data();
    const float* bd = b.data();
    RowwiseForF32(n, m, [pd, bd, m](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        float* prow = pd + r * m;
        for (int64_t c = 0; c < m; ++c) prow[c] += bd[c];
      }
    });
  }
  MatrixF32 inv_std(1, m);
  const float epsf = static_cast<float>(eps);
  for (int64_t c = 0; c < m; ++c) {
    inv_std(0, c) = 1.0f / std::sqrt(running_var(0, c) + epsf);
  }
  if (act == ActKind::kElu) {
    // Same split as AffineActValueF32: frozen-BN affine with identity
    // activation, then the vectorized ELU sweep.
    BnInferActF32InPlace<IdentityActF32>(n, m, pre.data(),
                                         running_mean.data(),
                                         inv_std.data(), gamma.data(),
                                         beta.data());
    EluF32InPlace(pre.data(), n * m);
    return pre;
  }
  DispatchActF32(act, [&](auto policy) {
    BnInferActF32InPlace<decltype(policy)>(n, m, pre.data(),
                                           running_mean.data(),
                                           inv_std.data(), gamma.data(),
                                           beta.data());
  });
  return pre;
}

MatrixF32 NormalizeRowsValueF32(const MatrixF32& a, double eps) {
  MatrixF32 out(a.rows(), a.cols());
  const float epsf = static_cast<float>(eps);
  for (int64_t r = 0; r < a.rows(); ++r) {
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) acc += a(r, c) * a(r, c);
    const float inv = 1.0f / std::sqrt(acc + epsf);
    for (int64_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c) * inv;
  }
  return out;
}

MatrixF32 ConcatColsValueF32(const MatrixF32& a, const MatrixF32& b) {
  SBRL_CHECK_EQ(a.rows(), b.rows());
  const int64_t ac = a.cols(), bc = b.cols();
  MatrixF32 out(a.rows(), ac + bc);
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < ac; ++c) out(r, c) = a(r, c);
    for (int64_t c = 0; c < bc; ++c) out(r, ac + c) = b(r, c);
  }
  return out;
}

}  // namespace ops
}  // namespace sbrl
