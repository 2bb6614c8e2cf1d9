#include "autodiff/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/linalg.h"

namespace sbrl {
namespace ops {

namespace {

/// CHECKs that both operands live on the same tape.
Tape* SameTape(Var a, Var b) {
  SBRL_CHECK(a.valid() && b.valid());
  SBRL_CHECK(a.tape() == b.tape()) << "operands on different tapes";
  return a.tape();
}

/// Runs body(lo, hi) over [0, n): inline below the shared serial
/// cutoff (no std::function is constructed), parallel chunks above it.
/// Elementwise bodies write disjoint indices, so results are
/// independent of the worker count.
template <typename Body>
void ElementwiseFor(int64_t n, Body body) {
  const int64_t cutoff = SerialCutoff();
  if (n <= cutoff) {
    body(static_cast<int64_t>(0), n);
    return;
  }
  ParallelFor(0, n, cutoff, body);
}

/// Generic unary elementwise op: y = f(x), dy/dx supplied as a function
/// of (x, y) so implementations can reuse the forward value. Forward
/// output and backward temporary both come from the tape's buffer pool.
/// Templated on the callables (every instantiation lives in this TU) so
/// the per-element calls inline instead of going through std::function.
/// Large activations map forward and backward in parallel chunks.
template <typename F, typename DF>
Var UnaryOp(Var a, F f, DF df) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  const Matrix& av = a.value();
  Matrix out = t->NewZero(av.rows(), av.cols());
  {
    const double* xd = av.data();
    double* od = out.data();
    ElementwiseFor(av.size(), [xd, od, f](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) od[i] = f(xd[i]);
    });
  }
  const int ai = a.id();
  const int self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self, df](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& x = t->value(ai);
    const Matrix& y = t->value(self);
    Matrix da = t->NewZero(x.rows(), x.cols());
    const double* gd = g.data();
    const double* xd = x.data();
    const double* yd = y.data();
    double* dad = da.data();
    ElementwiseFor(x.size(), [gd, xd, yd, dad, df](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) dad[i] = gd[i] * df(xd[i], yd[i]);
    });
    t->AccumulateGrad(ai, std::move(da));
  });
}

double StableSoftplus(double x) {
  return std::max(x, 0.0) + std::log1p(std::exp(-std::abs(x)));
}

/// Static activation policies shared by the fused layer ops and the
/// standalone ELU, so fused and reference forwards are bitwise
/// identical by construction: Row applies the activation in place over
/// a contiguous run; Grad maps the upstream g to g * D(y), with the
/// derivative D read off the POST-activation value alone (for elu,
/// y > 0 iff x > 0 and y = expm1(x) on the negative branch, so dy/dx is
/// 1 or y + 1). ELU's Row and Grad are the per-ISA kernels
/// (LinalgKernels::elu / elu_grad), the library's one ELU forward and
/// backward. The policies are dispatched ONCE per op call
/// (DispatchAct), so the per-element loops inline.
struct IdentityAct {
  static void Row(double*, int64_t) {}
  static void Grad(const double* g, const double*, double* out, int64_t n) {
    std::copy(g, g + n, out);
  }
};
struct EluAct {
  static void Row(double* x, int64_t n) { ActiveLinalgKernels().elu(x, n); }
  static void Grad(const double* g, const double* y, double* out, int64_t n) {
    ActiveLinalgKernels().elu_grad(g, y, out, n);
  }
};

/// d(pre-activation) of an activation node, reconstructed from the
/// upstream gradient and the stored POST-activation output alone (see
/// the Act policy contract above). Returned in a pooled buffer.
template <typename Act>
Matrix DpreFromOutput(Tape* t, const Matrix& g, const Matrix& yv) {
  Matrix dpre = t->NewZero(yv.rows(), yv.cols());
  const double* gd = g.data();
  const double* yd = yv.data();
  double* pd = dpre.data();
  ElementwiseFor(yv.size(), [gd, yd, pd](int64_t lo, int64_t hi) {
    Act::Grad(gd + lo, yd + lo, pd + lo, hi - lo);
  });
  return dpre;
}

/// Calls fn with the activation policy type selected by `act`.
template <typename Fn>
auto DispatchAct(ActKind act, Fn&& fn) {
  switch (act) {
    case ActKind::kIdentity: return fn(IdentityAct{});
    case ActKind::kElu: return fn(EluAct{});
  }
  SBRL_CHECK(false) << "unreachable";
  return fn(IdentityAct{});
}

/// Runs body(r0, r1) over the rows of an (rows x cols) matrix: serial
/// below the shared flop cutoff, row-parallel chunks above it. Row
/// bodies write disjoint rows, so results are worker-count invariant.
template <typename Body>
void RowwiseFor(int64_t rows, int64_t cols, Body body) {
  const int64_t cutoff = SerialCutoff();
  if (rows * cols <= cutoff) {
    body(static_cast<int64_t>(0), rows);
    return;
  }
  const int64_t grain = std::max<int64_t>(1, cutoff / std::max<int64_t>(1, cols));
  ParallelFor(0, rows, grain, body);
}

}  // namespace

Var Add(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK(a.value().same_shape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  Matrix out = t->NewCopy(a.value());
  out += b.value();
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b}, [ai, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);
    t->AccumulateGrad(ai, g);
    t->AccumulateGrad(bi, g);
  });
}

Var Sub(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK(a.value().same_shape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  Matrix out = t->NewCopy(a.value());
  out -= b.value();
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b}, [ai, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);
    t->AccumulateGrad(ai, g);
    Matrix ng = t->NewCopy(g);
    ng *= -1.0;
    t->AccumulateGrad(bi, std::move(ng));
  });
}

Var Mul(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK(a.value().same_shape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  Matrix out = t->NewZero(av.rows(), av.cols());
  {
    const double* ad = av.data();
    const double* bd = bv.data();
    double* od = out.data();
    ElementwiseFor(av.size(), [ad, bd, od](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) od[i] = ad[i] * bd[i];
    });
  }
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b}, [ai, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    const Matrix& bv = t->value(bi);
    Matrix da = t->NewZero(av.rows(), av.cols());
    Matrix db = t->NewZero(av.rows(), av.cols());
    const double* gd = g.data();
    const double* ad = av.data();
    const double* bd = bv.data();
    double* dad = da.data();
    double* dbd = db.data();
    ElementwiseFor(av.size(), [gd, ad, bd, dad, dbd](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        dad[i] = gd[i] * bd[i];
        dbd[i] = gd[i] * ad[i];
      }
    });
    t->AccumulateGrad(ai, std::move(da));
    t->AccumulateGrad(bi, std::move(db));
  });
}

Var AddRow(Var a, Var row) {
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

Var MulCol(Var a, Var col) {
  Tape* t = SameTape(a, col);
  SBRL_CHECK_EQ(col.cols(), 1);
  SBRL_CHECK_EQ(col.rows(), a.rows());
  const Matrix& av = a.value();
  const Matrix& cv = col.value();
  Matrix out = t->NewZero(av.rows(), av.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    const double s = cv(r, 0);
    for (int64_t c = 0; c < av.cols(); ++c) out(r, c) = av(r, c) * s;
  }
  const int ai = a.id(), ci = col.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, col}, [ai, ci, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    const Matrix& cv = t->value(ci);
    // The HSIC weight loss scales a large CONSTANT feature stack by the
    // differentiable weights: skip the full-size da when nothing
    // upstream wants it.
    const bool need_a = t->requires_grad(ai);
    const bool need_c = t->requires_grad(ci);
    Matrix da, dc;
    if (need_a) da = t->NewZero(av.rows(), av.cols());
    if (need_c) dc = t->NewZero(av.rows(), 1);
    for (int64_t r = 0; r < av.rows(); ++r) {
      const double s = cv(r, 0);
      double acc = 0.0;
      for (int64_t c = 0; c < av.cols(); ++c) {
        if (need_a) da(r, c) = g(r, c) * s;
        acc += g(r, c) * av(r, c);
      }
      if (need_c) dc(r, 0) = acc;
    }
    if (need_a) t->AccumulateGrad(ai, std::move(da));
    if (need_c) t->AccumulateGrad(ci, std::move(dc));
  });
}

Var DivScalar(Var a, Var s) {
  Tape* t = SameTape(a, s);
  SBRL_CHECK(s.value().is_scalar());
  const double sv = s.value().scalar();
  Matrix out = t->NewCopy(a.value());
  out *= 1.0 / sv;
  const int ai = a.id(), si = s.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, s}, [ai, si, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const double sval = t->value(si).scalar();
    Matrix da = t->NewCopy(g);
    da *= 1.0 / sval;
    t->AccumulateGrad(ai, std::move(da));
    Matrix ds = t->NewZero(1, 1);
    ds(0, 0) = -Dot(g, t->value(ai)) / (sval * sval);
    t->AccumulateGrad(si, std::move(ds));
  });
}

Var AddConst(Var a, double c) {
  return UnaryOp(
      a, [c](double x) { return x + c; },
      [](double, double) { return 1.0; });
}

Var Scale(Var a, double c) {
  return UnaryOp(
      a, [c](double x) { return c * x; },
      [c](double, double) { return c; });
}

Var Square(Var a) {
  return UnaryOp(
      a, [](double x) { return x * x; },
      [](double x, double) { return 2.0 * x; });
}

Var Abs(Var a) {
  return UnaryOp(
      a, [](double x) { return std::abs(x); },
      [](double x, double) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
}

Var Softplus(Var a) {
  return UnaryOp(
      a, [](double x) { return StableSoftplus(x); },
      [](double x, double) { return StableSigmoid(x); });
}

// The standalone ELU node: EluAct::Row over a copy of x in elementwise
// chunks, backward through DpreFromOutput — the same kernels the fused
// layer ops run.
Var Elu(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  Matrix out = t->NewZero(a.rows(), a.cols());
  const double* xd = a.value().data();
  double* od = out.data();
  ElementwiseFor(out.size(), [xd, od](int64_t lo, int64_t hi) {
    std::copy(xd + lo, xd + hi, od + lo);
    EluAct::Row(od + lo, hi - lo);
  });
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    t->AccumulateGrad(
        ai, DpreFromOutput<EluAct>(t, t->grad(self), t->value(self)));
  });
}

Var Transpose(Var a) {
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

Var GatherRows(Var a, const std::vector<int64_t>& idx) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  const int ai = a.id(), self = t->size();
  const int64_t parent_rows = a.rows();
  return t->MakeNode(sbrl::GatherRows(a.value(), idx), {a},
                     [ai, self, idx, parent_rows](Tape* t) {
    const Matrix& g = t->grad(self);
    Matrix da = t->NewZero(parent_rows, g.cols());
    for (int64_t i = 0; i < g.rows(); ++i) {
      for (int64_t c = 0; c < g.cols(); ++c) da(idx[static_cast<size_t>(i)], c) += g(i, c);
    }
    t->AccumulateGrad(ai, std::move(da));
  });
}

Var ConcatCols(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK_EQ(a.rows(), b.rows());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  const int64_t ac = av.cols(), bc = bv.cols();
  Matrix out = t->NewZero(av.rows(), ac + bc);
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < ac; ++c) out(r, c) = av(r, c);
    for (int64_t c = 0; c < bc; ++c) out(r, ac + c) = bv(r, c);
  }
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b},
                     [ai, bi, self, ac, bc](Tape* t) {
    const Matrix& g = t->grad(self);
    Matrix da = t->NewZero(g.rows(), ac);
    Matrix db = t->NewZero(g.rows(), bc);
    for (int64_t r = 0; r < g.rows(); ++r) {
      for (int64_t c = 0; c < ac; ++c) da(r, c) = g(r, c);
      for (int64_t c = 0; c < bc; ++c) db(r, c) = g(r, ac + c);
    }
    t->AccumulateGrad(ai, std::move(da));
    t->AccumulateGrad(bi, std::move(db));
  });
}

Var SelectRowsByTreatment(Var a, Var b, const std::vector<int>& t_assign) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK(a.value().same_shape(b.value()));
  SBRL_CHECK_EQ(static_cast<int64_t>(t_assign.size()), a.rows());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  Matrix out = t->NewZero(av.rows(), av.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    const Matrix& src = t_assign[static_cast<size_t>(r)] == 1 ? av : bv;
    for (int64_t c = 0; c < av.cols(); ++c) out(r, c) = src(r, c);
  }
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b},
                     [ai, bi, self, t_assign](Tape* t) {
    const Matrix& g = t->grad(self);
    Matrix da = t->NewZero(g.rows(), g.cols());
    Matrix db = t->NewZero(g.rows(), g.cols());
    for (int64_t r = 0; r < g.rows(); ++r) {
      Matrix& dst = t_assign[static_cast<size_t>(r)] == 1 ? da : db;
      for (int64_t c = 0; c < g.cols(); ++c) dst(r, c) = g(r, c);
    }
    t->AccumulateGrad(ai, std::move(da));
    t->AccumulateGrad(bi, std::move(db));
  });
}

Var ScatterRowsByTreatment(Var a, Var b, const std::vector<int>& t_assign) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK_EQ(a.cols(), b.cols());
  SBRL_CHECK_EQ(a.rows() + b.rows(),
                static_cast<int64_t>(t_assign.size()));
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  const int64_t n = static_cast<int64_t>(t_assign.size());
  const int64_t d = av.cols();
  int64_t num_treated = 0;
  for (int v : t_assign) num_treated += v == 1 ? 1 : 0;
  SBRL_CHECK(num_treated == av.rows() && n - num_treated == bv.rows())
      << "treatment vector does not partition the arm row counts: "
      << num_treated << " treated vs " << av.ShapeString() << ", "
      << n - num_treated << " control vs " << bv.ShapeString();
  Matrix out = t->NewZero(n, d);
  {
    int64_t ra = 0, rb = 0;
    for (int64_t r = 0; r < n; ++r) {
      const bool treated = t_assign[static_cast<size_t>(r)] == 1;
      const Matrix& src = treated ? av : bv;
      const int64_t sr = treated ? ra++ : rb++;
      for (int64_t c = 0; c < d; ++c) out(r, c) = src(sr, c);
    }
  }
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b},
                     [ai, bi, self, t_assign](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    const Matrix& bv = t->value(bi);
    Matrix da = t->NewZero(av.rows(), av.cols());
    Matrix db = t->NewZero(bv.rows(), bv.cols());
    int64_t ra = 0, rb = 0;
    for (int64_t r = 0; r < g.rows(); ++r) {
      const bool treated = t_assign[static_cast<size_t>(r)] == 1;
      Matrix& dst = treated ? da : db;
      const int64_t sr = treated ? ra++ : rb++;
      for (int64_t c = 0; c < g.cols(); ++c) dst(sr, c) = g(r, c);
    }
    t->AccumulateGrad(ai, std::move(da));
    t->AccumulateGrad(bi, std::move(db));
  });
}

Var SliceCols(Var a, int64_t start, int64_t count) {
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

Var SumAll(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  Matrix out = t->NewZero(1, 1);
  out(0, 0) = a.value().Sum();
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    const double g = t->grad(self).scalar();
    const Matrix& av = t->value(ai);
    Matrix da = t->NewZero(av.rows(), av.cols());
    da.Fill(g);
    t->AccumulateGrad(ai, std::move(da));
  });
}

Var MeanAll(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  SBRL_CHECK_GT(a.value().size(), 0);
  Matrix out = t->NewZero(1, 1);
  out(0, 0) = a.value().Mean();
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    const Matrix& av = t->value(ai);
    const double g =
        t->grad(self).scalar() / static_cast<double>(av.size());
    Matrix da = t->NewZero(av.rows(), av.cols());
    da.Fill(g);
    t->AccumulateGrad(ai, std::move(da));
  });
}

Var RowSum(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  const Matrix& av = a.value();
  Matrix out = t->NewZero(av.rows(), 1);
  for (int64_t r = 0; r < av.rows(); ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < av.cols(); ++c) acc += av(r, c);
    out(r, 0) = acc;
  }
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    Matrix da = t->NewZero(av.rows(), av.cols());
    for (int64_t r = 0; r < av.rows(); ++r) {
      const double gv = g(r, 0);
      for (int64_t c = 0; c < av.cols(); ++c) da(r, c) = gv;
    }
    t->AccumulateGrad(ai, std::move(da));
  });
}

Var ColSum(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  const Matrix& av = a.value();
  Matrix out = t->NewZero(1, av.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < av.cols(); ++c) out(0, c) += av(r, c);
  }
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    Matrix da = t->NewZero(av.rows(), av.cols());
    for (int64_t r = 0; r < av.rows(); ++r) {
      for (int64_t c = 0; c < av.cols(); ++c) da(r, c) = g(0, c);
    }
    t->AccumulateGrad(ai, std::move(da));
  });
}

Var Matmul(Var a, Var b) {
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

Var MatmulTransA(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK_EQ(a.rows(), b.rows());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  Matrix out = t->NewZero(av.cols(), bv.cols());
  MatmulTransAInto(av, bv, &out);
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, b}, [ai, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);  // (q x r)
    const Matrix& av = t->value(ai);  // (p x q)
    const Matrix& bv = t->value(bi);  // (p x r)
    if (t->requires_grad(ai)) {
      Matrix da = t->NewZero(av.rows(), av.cols());
      MatmulTransBInto(bv, g, &da);  // da = b g^T
      t->AccumulateGrad(ai, std::move(da));
    }
    if (t->requires_grad(bi)) {
      Matrix db = t->NewZero(bv.rows(), bv.cols());
      MatmulInto(av, g, &db);  // db = a g
      t->AccumulateGrad(bi, std::move(db));
    }
  });
}

Var Affine(Var x, Var w, Var b) {
  Tape* t = SameTape(x, w);
  SameTape(w, b);
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK_EQ(b.rows(), 1);
  SBRL_CHECK_EQ(b.cols(), w.cols());
  const Matrix& xv = x.value();
  const Matrix& wv = w.value();
  const Matrix& bv = b.value();
  Matrix out = t->NewZero(xv.rows(), wv.cols());
  MatmulInto(xv, wv, &out);
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = 0; c < out.cols(); ++c) out(r, c) += bv(0, c);
  }
  const int xi = x.id(), wi = w.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {x, w, b},
                     [xi, wi, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& xv = t->value(xi);
    const Matrix& wv = t->value(wi);
    // The first layer's input is a Constant: skip the full-batch dx
    // product (the largest single matmul of every backward pass) when
    // nothing upstream wants it.
    if (t->requires_grad(xi)) {
      Matrix dx = t->NewZero(xv.rows(), xv.cols());
      MatmulTransBInto(g, wv, &dx);
      t->AccumulateGrad(xi, std::move(dx));
    }
    if (t->requires_grad(wi)) {
      Matrix dw = t->NewZero(wv.rows(), wv.cols());
      MatmulTransAInto(xv, g, &dw);
      t->AccumulateGrad(wi, std::move(dw));
    }
    if (t->requires_grad(bi)) {
      Matrix db = t->NewZero(1, g.cols());
      for (int64_t r = 0; r < g.rows(); ++r) {
        for (int64_t c = 0; c < g.cols(); ++c) db(0, c) += g(r, c);
      }
      t->AccumulateGrad(bi, std::move(db));
    }
  });
}

namespace {

/// Backward tail of AffineAct: given d(pre-activation) `dpre`, emits
/// dx / dW / db with the same requires_grad gating as ops::Affine (a
/// constant first-layer input skips the full-batch dx matmul). Consumes
/// `dpre` (recycled).
void AffineBackwardFromDpre(Tape* t, int xi, int wi, int bi, Matrix&& dpre) {
  const Matrix& xv = t->value(xi);
  const Matrix& wv = t->value(wi);
  if (t->requires_grad(xi)) {
    Matrix dx = t->NewZero(xv.rows(), xv.cols());
    MatmulTransBInto(dpre, wv, &dx);
    t->AccumulateGrad(xi, std::move(dx));
  }
  if (t->requires_grad(wi)) {
    Matrix dw = t->NewZero(wv.rows(), wv.cols());
    MatmulTransAInto(xv, dpre, &dw);
    t->AccumulateGrad(wi, std::move(dw));
  }
  if (t->requires_grad(bi)) {
    Matrix db = t->NewZero(1, dpre.cols());
    for (int64_t r = 0; r < dpre.rows(); ++r) {
      for (int64_t c = 0; c < dpre.cols(); ++c) db(0, c) += dpre(r, c);
    }
    t->AccumulateGrad(bi, std::move(db));
  }
  t->Recycle(std::move(dpre));
}

/// Bias add and activation over a matmul output at `od`, in place, row
/// by row (the activation is each row's epilogue); the pre-activation
/// is overwritten and never kept. This is THE fused-affine forward loop
/// — AffineAct's tape node and AffineActValue both run it, which is
/// what makes InferenceNet forwards bitwise identical to the tape
/// forward.
template <typename Act>
void BiasActInPlace(int64_t n, int64_t m, double* od, const double* bd) {
  RowwiseFor(n, m, [od, bd, m](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      double* orow = od + r * m;
      for (int64_t c = 0; c < m; ++c) orow[c] += bd[c];
      Act::Row(orow, m);
    }
  });
}

/// AffineAct body, templated on the activation policy so the
/// per-element calls inline.
template <typename Act>
Var AffineActImpl(Var x, Var w, Var b) {
  Tape* t = SameTape(x, w);
  SameTape(w, b);
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK_EQ(b.rows(), 1);
  SBRL_CHECK_EQ(b.cols(), w.cols());
  const Matrix& xv = x.value();
  const Matrix& wv = w.value();
  const Matrix& bv = b.value();
  const int64_t n = xv.rows(), m = wv.cols();
  Matrix out = t->NewZero(n, m);
  MatmulInto(xv, wv, &out);
  BiasActInPlace<Act>(n, m, out.data(), bv.data());
  const int xi = x.id(), wi = w.id(), bi = b.id(), self = t->size();
  return t->MakeNode(std::move(out), {x, w, b},
                     [xi, wi, bi, self](Tape* t) {
    AffineBackwardFromDpre(
        t, xi, wi, bi,
        DpreFromOutput<Act>(t, t->grad(self), t->value(self)));
  });
}

}  // namespace

Var AffineAct(Var x, Var w, Var b, ActKind act) {
  return DispatchAct(act, [&](auto policy) {
    return AffineActImpl<decltype(policy)>(x, w, b);
  });
}

Matrix AffineActValue(const Matrix& x, const Matrix& w, const Matrix& b,
                      ActKind act, MatrixPool* pool) {
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK(b.rows() == 1 && b.cols() == w.cols());
  const int64_t n = x.rows(), m = w.cols();
  Matrix out = pool != nullptr ? pool->AcquireZero(n, m) : Matrix(n, m);
  MatmulInto(x, w, &out);
  DispatchAct(act, [&](auto policy) {
    BiasActInPlace<decltype(policy)>(n, m, out.data(), b.data());
  });
  return out;
}

Matrix ConcatColsValue(const Matrix& a, const Matrix& b) {
  SBRL_CHECK_EQ(a.rows(), b.rows());
  const int64_t ac = a.cols(), bc = b.cols();
  Matrix out(a.rows(), ac + bc);
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < ac; ++c) out(r, c) = a(r, c);
    for (int64_t c = 0; c < bc; ++c) out(r, ac + c) = b(r, c);
  }
  return out;
}

Var SigmoidCrossEntropyWithLogits(Var logits, const Matrix& labels) {
  Tape* t = logits.tape();
  SBRL_CHECK(logits.valid());
  SBRL_CHECK(logits.value().same_shape(labels));
  const Matrix& x = logits.value();
  Matrix out = t->NewZero(x.rows(), x.cols());
  for (int64_t i = 0; i < x.size(); ++i) {
    out[i] = std::max(x[i], 0.0) - x[i] * labels[i] +
             std::log1p(std::exp(-std::abs(x[i])));
  }
  const int ai = logits.id(), self = t->size();
  return t->MakeNode(std::move(out), {logits}, [ai, self, labels](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& x = t->value(ai);
    Matrix da = t->NewZero(x.rows(), x.cols());
    for (int64_t i = 0; i < x.size(); ++i) {
      da[i] = g[i] * (StableSigmoid(x[i]) - labels[i]);
    }
    t->AccumulateGrad(ai, std::move(da));
  });
}

Var WeightedMean(Var values, Var w) {
  SBRL_CHECK_EQ(values.cols(), 1);
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_EQ(values.rows(), w.rows());
  Var numer = SumAll(Mul(values, w));
  Var denom = SumAll(w);
  return DivScalar(numer, denom);
}

}  // namespace ops
}  // namespace sbrl
