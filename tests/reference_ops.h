// Unfused tape ops kept as test oracles. The library records fused
// nodes (ops::Affine, ops::MatmulTransA, the HSIC-RFF tier); these
// record the primitive chain the fused nodes replace, one node per
// step, on the public Tape API and the tensor/linalg.h kernels, so
// an oracle computes the bits the same kernels give in the same order.

#ifndef SBRL_TESTS_REFERENCE_OPS_H_
#define SBRL_TESTS_REFERENCE_OPS_H_

#include <cstdint>
#include <utility>

#include "autodiff/tape.h"
#include "common/check.h"
#include "tensor/linalg.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace reference {

/// CHECKs that both operands live on the same tape.
inline Tape* SameTape(Var a, Var b) {
  SBRL_CHECK(a.valid() && b.valid());
  SBRL_CHECK(a.tape() == b.tape()) << "operands on different tapes";
  return a.tape();
}

/// Matrix product (n x k) * (k x m).
inline Var Matmul(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK_EQ(a.cols(), b.rows());
  Matrix out = t->NewZero(a.rows(), b.cols());
  MatmulInto(a.value(), b.value(), &out);
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b}, [ai, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    const Matrix& bv = t->value(bi);
    if (t->requires_grad(ai)) {
      Matrix da = t->NewZero(av.rows(), av.cols());
      MatmulTransBInto(g, bv, &da);
      t->AccumulateGrad(ai, std::move(da));
    }
    if (t->requires_grad(bi)) {
      Matrix db = t->NewZero(bv.rows(), bv.cols());
      MatmulTransAInto(av, g, &db);
      t->AccumulateGrad(bi, std::move(db));
    }
  });
}

/// a^T as its own node.
inline Var Transpose(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  const Matrix& av = a.value();
  Matrix out = t->NewZero(av.cols(), av.rows());
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < av.cols(); ++c) out(c, r) = av(r, c);
  }
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    const Matrix& g = t->grad(self);
    Matrix da = t->NewZero(g.cols(), g.rows());
    for (int64_t r = 0; r < g.rows(); ++r) {
      for (int64_t c = 0; c < g.cols(); ++c) da(c, r) = g(r, c);
    }
    t->AccumulateGrad(ai, std::move(da));
  });
}

/// (n x d) + (1 x d): adds `row` to every row (bias add).
inline Var AddRow(Var a, Var row) {
  Tape* t = SameTape(a, row);
  SBRL_CHECK_EQ(row.rows(), 1);
  SBRL_CHECK_EQ(row.cols(), a.cols());
  const Matrix& av = a.value();
  const Matrix& rv = row.value();
  Matrix out = t->NewCopy(av);
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < av.cols(); ++c) out(r, c) += rv(0, c);
  }
  const int ai = a.id(), ri = row.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, row}, [ai, ri, self](Tape* t) {
    const Matrix& g = t->grad(self);
    t->AccumulateGrad(ai, g);
    Matrix dr = t->NewZero(1, g.cols());
    for (int64_t r = 0; r < g.rows(); ++r) {
      for (int64_t c = 0; c < g.cols(); ++c) dr(0, c) += g(r, c);
    }
    t->AccumulateGrad(ri, std::move(dr));
  });
}

/// Copy of columns [start, start + count) of `a`.
inline Var SliceCols(Var a, int64_t start, int64_t count) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  SBRL_CHECK(start >= 0 && count >= 0 && start + count <= a.cols());
  const Matrix& av = a.value();
  Matrix out = t->NewZero(av.rows(), count);
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < count; ++c) out(r, c) = av(r, start + c);
  }
  const int ai = a.id(), self = t->size();
  const int64_t total = a.cols();
  return t->MakeNode(std::move(out), {a},
                     [ai, self, start, count, total](Tape* t) {
    const Matrix& g = t->grad(self);
    Matrix da = t->NewZero(g.rows(), total);
    for (int64_t r = 0; r < g.rows(); ++r) {
      for (int64_t c = 0; c < count; ++c) da(r, start + c) = g(r, c);
    }
    t->AccumulateGrad(ai, std::move(da));
  });
}

}  // namespace reference
}  // namespace sbrl

#endif  // SBRL_TESTS_REFERENCE_OPS_H_
