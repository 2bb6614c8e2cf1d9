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

double StableSigmoid(double x) {
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double StableSoftplus(double x) {
  return std::max(x, 0.0) + std::log1p(std::exp(-std::abs(x)));
}

/// Static activation policies shared by the fused layer ops and the
/// standalone activations, so fused and reference forwards are bitwise
/// identical by construction: Row applies the activation in place over
/// a contiguous run; Grad maps the upstream g to g * D(y), with the
/// derivative D read off the POST-activation value alone. Every ActKind
/// admits D(y) (it is the membership criterion): for elu, y > 0 iff
/// x > 0 and y = expm1(x) on the negative branch, so dy/dx is 1 or
/// y + 1; relu / tanh / sigmoid are standard. ELU's Row and Grad are
/// the per-ISA kernels (LinalgKernels::elu / elu_grad), the library's
/// one ELU forward and backward; the others map a scalar F and D. The
/// policies are dispatched ONCE per op call (DispatchAct), so the
/// per-element loops inline.
template <typename Act>
struct Pointwise {
  static void Row(double* x, int64_t n) {
    for (int64_t i = 0; i < n; ++i) x[i] = Act::F(x[i]);
  }
  static void Grad(const double* g, const double* y, double* out, int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = g[i] * Act::D(y[i]);
  }
};
struct IdentityAct : Pointwise<IdentityAct> {
  static void Row(double*, int64_t) {}
  static double D(double) { return 1.0; }
};
struct EluAct {
  static void Row(double* x, int64_t n) { ActiveLinalgKernels().elu(x, n); }
  static void Grad(const double* g, const double* y, double* out, int64_t n) {
    ActiveLinalgKernels().elu_grad(g, y, out, n);
  }
};
struct ReluAct : Pointwise<ReluAct> {
  static double F(double x) { return x > 0.0 ? x : 0.0; }
  static double D(double y) { return y > 0.0 ? 1.0 : 0.0; }
};
struct TanhAct : Pointwise<TanhAct> {
  static double F(double x) { return std::tanh(x); }
  static double D(double y) { return 1.0 - y * y; }
};
struct SigmoidAct : Pointwise<SigmoidAct> {
  static double F(double x) { return StableSigmoid(x); }
  static double D(double y) { return y * (1.0 - y); }
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

/// Standalone activation node y = act(x): Act::Row over a copy of x in
/// elementwise chunks, backward through DpreFromOutput — the same
/// kernels the fused layer ops run.
template <typename Act>
Var ActOp(Var a) {
  Tape* t = a.tape();
  SBRL_CHECK(a.valid());
  Matrix out = t->NewZero(a.rows(), a.cols());
  const double* xd = a.value().data();
  double* od = out.data();
  ElementwiseFor(out.size(), [xd, od](int64_t lo, int64_t hi) {
    std::copy(xd + lo, xd + hi, od + lo);
    Act::Row(od + lo, hi - lo);
  });
  const int ai = a.id(), self = t->size();
  return t->MakeNode(std::move(out), {a}, [ai, self](Tape* t) {
    t->AccumulateGrad(ai,
                      DpreFromOutput<Act>(t, t->grad(self), t->value(self)));
  });
}

/// Calls fn with the activation policy type selected by `act`.
template <typename Fn>
auto DispatchAct(ActKind act, Fn&& fn) {
  switch (act) {
    case ActKind::kIdentity: return fn(IdentityAct{});
    case ActKind::kElu: return fn(EluAct{});
    case ActKind::kRelu: return fn(ReluAct{});
    case ActKind::kTanh: return fn(TanhAct{});
    case ActKind::kSigmoid: return fn(SigmoidAct{});
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

Var MulRow(Var a, Var row) {
  Tape* t = SameTape(a, row);
  SBRL_CHECK_EQ(row.rows(), 1);
  SBRL_CHECK_EQ(row.cols(), a.cols());
  const Matrix& av = a.value();
  const Matrix& rv = row.value();
  Matrix out = t->NewZero(av.rows(), av.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < av.cols(); ++c) out(r, c) = av(r, c) * rv(0, c);
  }
  const int ai = a.id(), ri = row.id(), self = t->size();
  return t->MakeNode(std::move(out), {a, row}, [ai, ri, self](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& av = t->value(ai);
    const Matrix& rv = t->value(ri);
    Matrix da = t->NewZero(av.rows(), av.cols());
    Matrix dr = t->NewZero(1, av.cols());
    for (int64_t r = 0; r < av.rows(); ++r) {
      for (int64_t c = 0; c < av.cols(); ++c) {
        da(r, c) = g(r, c) * rv(0, c);
        dr(0, c) += g(r, c) * av(r, c);
      }
    }
    t->AccumulateGrad(ai, std::move(da));
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

Var Neg(Var a) { return Scale(a, -1.0); }

Var Exp(Var a) {
  return UnaryOp(
      a, [](double x) { return std::exp(x); },
      [](double, double y) { return y; });
}

Var Log(Var a) {
  return UnaryOp(
      a, [](double x) { return std::log(x); },
      [](double x, double) { return 1.0 / x; });
}

Var Sqrt(Var a) {
  return UnaryOp(
      a, [](double x) { return std::sqrt(x); },
      [](double, double y) { return 0.5 / (y > 0.0 ? y : 1e-12); });
}

Var Square(Var a) {
  return UnaryOp(
      a, [](double x) { return x * x; },
      [](double x, double) { return 2.0 * x; });
}

Var Reciprocal(Var a) {
  return UnaryOp(
      a, [](double x) { return 1.0 / x; },
      [](double, double y) { return -y * y; });
}

Var Abs(Var a) {
  return UnaryOp(
      a, [](double x) { return std::abs(x); },
      [](double x, double) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
}

Var Sigmoid(Var a) { return ActOp<SigmoidAct>(a); }

Var Tanh(Var a) { return ActOp<TanhAct>(a); }

Var Softplus(Var a) {
  return UnaryOp(
      a, [](double x) { return StableSoftplus(x); },
      [](double x, double) { return StableSigmoid(x); });
}

Var Elu(Var a) { return ActOp<EluAct>(a); }

Var Relu(Var a) { return ActOp<ReluAct>(a); }

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

Var RowMean(Var a) {
  SBRL_CHECK_GT(a.cols(), 0);
  return Scale(RowSum(a), 1.0 / static_cast<double>(a.cols()));
}

Var ColMean(Var a) {
  SBRL_CHECK_GT(a.rows(), 0);
  return Scale(ColSum(a), 1.0 / static_cast<double>(a.rows()));
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

/// Shared backward tail of the fused network-step ops: given
/// d(pre-activation) `dpre`, emits dx / dW / db with the same
/// requires_grad gating as ops::Affine (a constant first-layer input
/// skips the full-batch dx matmul). Consumes `dpre` (recycled).
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

/// Broadcast-adds the (1 x m) row at `bd` to every row of the
/// (n x m) buffer at `pd`, in place. Shared by the tape ops and the
/// inference value kernels so both paths add the bias in the same order.
void AddRowBroadcastInPlace(int64_t n, int64_t m, double* pd,
                            const double* bd) {
  RowwiseFor(n, m, [pd, bd, m](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      double* prow = pd + r * m;
      for (int64_t c = 0; c < m; ++c) prow[c] += bd[c];
    }
  });
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

/// Frozen-statistics batch-norm + activation pass over the biased
/// affine output at `od`, in place: h = (od - mean) * inv_std,
/// od = act(h * gamma + beta). When `hd` is non-null the normalized
/// activations are also stored there (the tape op keeps them for its
/// backward); the inference value kernel passes nullptr. Shared for the
/// same bitwise-parity reason as BiasActInPlace.
template <typename Act>
void BnInferActInPlace(int64_t n, int64_t m, double* od, double* hd,
                       const double* md, const double* sd, const double* gd,
                       const double* bd) {
  RowwiseFor(n, m, [hd, od, md, sd, gd, bd, m](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t c = 0; c < m; ++c) {
        const int64_t i = r * m + c;
        const double h = (od[i] + -1.0 * md[c]) * sd[c];
        if (hd != nullptr) hd[i] = h;
        od[i] = h * gd[c] + bd[c];
      }
      Act::Row(od + r * m, m);
    }
  });
}

/// Affine forward into a pooled buffer: x W + broadcast b.
Matrix AffineForwardInto(Tape* t, const Matrix& xv, const Matrix& wv,
                         const Matrix& bv) {
  const int64_t n = xv.rows(), m = wv.cols();
  Matrix pre = t->NewZero(n, m);
  MatmulInto(xv, wv, &pre);
  AddRowBroadcastInPlace(n, m, pre.data(), bv.data());
  return pre;
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

namespace {

/// Tape/shape contract shared by the fused batch-norm ops; returns the
/// common tape.
Tape* CheckAffineBnShapes(Var x, Var w, Var b, Var gamma, Var beta) {
  Tape* t = SameTape(x, w);
  SameTape(w, b);
  SameTape(b, gamma);
  SameTape(gamma, beta);
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK_EQ(b.rows(), 1);
  SBRL_CHECK_EQ(b.cols(), w.cols());
  SBRL_CHECK(gamma.rows() == 1 && gamma.cols() == w.cols());
  SBRL_CHECK(beta.rows() == 1 && beta.cols() == w.cols());
  return t;
}

/// dgamma / dbeta column sums of a fused batch-norm backward,
/// accumulated in ascending row order (g2 = dL/d(gamma*xhat + beta)).
void BnGammaBetaSums(const Matrix& g2, const Matrix& xhat, Matrix* dgamma,
                     Matrix* dbeta) {
  const int64_t n = g2.rows(), m = g2.cols();
  *dgamma = Matrix(1, m);
  *dbeta = Matrix(1, m);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < m; ++c) {
      (*dgamma)(0, c) += g2(r, c) * xhat(r, c);
      (*dbeta)(0, c) += g2(r, c);
    }
  }
}

/// Shared tail of both fused batch-norm backwards: emits the
/// gamma/beta gradients, runs the affine tail on `dpre`, and recycles
/// the closure-held buffers. Consumes every matrix argument.
void FinishBnBackward(Tape* t, int xi, int wi, int bi, int gi, int ti,
                      Matrix&& dgamma, Matrix&& dbeta, Matrix&& dpre,
                      Matrix&& xhat, Matrix&& inv_std) {
  t->AccumulateGrad(gi, std::move(dgamma));
  t->AccumulateGrad(ti, std::move(dbeta));
  AffineBackwardFromDpre(t, xi, wi, bi, std::move(dpre));
  t->Recycle(std::move(xhat));
  t->Recycle(std::move(inv_std));
}

/// AffineBatchNormAct body, templated on the activation policy.
template <typename Act>
Var AffineBatchNormActImpl(Var x, Var w, Var b, Var gamma, Var beta,
                           double eps, Matrix* batch_mean,
                           Matrix* batch_var) {
  Tape* t = CheckAffineBnShapes(x, w, b, gamma, beta);
  SBRL_CHECK(batch_mean != nullptr && batch_var != nullptr);
  SBRL_CHECK_GT(x.rows(), 1) << "batch norm needs more than one sample";
  const Matrix& xv = x.value();
  const Matrix& wv = w.value();
  const int64_t n = xv.rows(), m = wv.cols();

  Matrix pre = AffineForwardInto(t, xv, wv, b.value());
  // Batch statistics, accumulated in ascending row order — the same
  // left-fold the reference ColSum performs, so mu / var are bitwise
  // identical to the ops::ColMean composition.
  const double inv_n = 1.0 / static_cast<double>(n);
  Matrix mu(1, m);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < m; ++c) mu(0, c) += pre(r, c);
  }
  for (int64_t c = 0; c < m; ++c) mu(0, c) = inv_n * mu(0, c);
  // Biased variance of centered = pre + (-mu), ascending row order.
  Matrix var(1, m);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < m; ++c) {
      const double centered = pre(r, c) + -1.0 * mu(0, c);
      var(0, c) += centered * centered;
    }
  }
  for (int64_t c = 0; c < m; ++c) var(0, c) = inv_n * var(0, c);
  Matrix inv_std = t->NewZero(1, m);
  for (int64_t c = 0; c < m; ++c) {
    inv_std(0, c) = 1.0 / std::sqrt(var(0, c) + eps);
  }
  // xhat = (pre - mu) * inv_std; out = act(xhat * gamma + beta) reuses
  // the pre buffer — the pre-activation is consumed, never recorded.
  // The frozen-statistics pass run with the batch statistics: it
  // centers exactly as above, so training and inference share one
  // normalize + activation loop.
  Matrix xhat = t->NewZero(n, m);
  BnInferActInPlace<Act>(n, m, pre.data(), xhat.data(), mu.data(),
                         inv_std.data(), gamma.value().data(),
                         beta.value().data());
  *batch_mean = std::move(mu);
  *batch_var = std::move(var);

  const int xi = x.id(), wi = w.id(), bi = b.id();
  const int gi = gamma.id(), ti = beta.id();
  const int self = t->size();
  return t->MakeNode(
      std::move(pre), {x, w, b, gamma, beta},
      [xi, wi, bi, gi, ti, self, xhat = std::move(xhat),
       inv_std = std::move(inv_std)](Tape* t) mutable {
        const Matrix& g = t->grad(self);
        const Matrix& yv = t->value(self);
        const Matrix& gv = t->value(gi);
        const int64_t n = yv.rows(), m = yv.cols();
        const double inv_n = 1.0 / static_cast<double>(n);
        // g2 = dL/d(gamma * xhat + beta), reconstructed from the
        // output; the buffer is reused in place for dpre below.
        Matrix tmp = DpreFromOutput<Act>(t, g, yv);
        Matrix dgamma, dbeta;
        BnGammaBetaSums(tmp, xhat, &dgamma, &dbeta);
        // Closed-form batch-norm gradient: with dxhat = g2 * gamma,
        //   dpre = inv_std * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
        // where the column means reuse the dgamma / dbeta sums.
        {
          double* td = tmp.data();
          const double* hd = xhat.data();
          const double* sd = inv_std.data();
          const double* gmd = gv.data();
          const double* dgd = dgamma.data();
          const double* dbd = dbeta.data();
          RowwiseFor(n, m,
                     [td, hd, sd, gmd, dgd, dbd, m, inv_n](int64_t r0,
                                                           int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              for (int64_t c = 0; c < m; ++c) {
                const int64_t i = r * m + c;
                td[i] = sd[c] * (gmd[c] * td[i] - inv_n * gmd[c] * dbd[c] -
                                 hd[i] * inv_n * gmd[c] * dgd[c]);
              }
            }
          });
        }
        FinishBnBackward(t, xi, wi, bi, gi, ti, std::move(dgamma),
                         std::move(dbeta), std::move(tmp), std::move(xhat),
                         std::move(inv_std));
      });
}

/// AffineBatchNormInferAct body, templated on the activation policy.
template <typename Act>
Var AffineBatchNormInferActImpl(Var x, Var w, Var b, Var gamma, Var beta,
                                const Matrix& running_mean,
                                const Matrix& running_var, double eps) {
  Tape* t = CheckAffineBnShapes(x, w, b, gamma, beta);
  SBRL_CHECK(running_mean.rows() == 1 && running_mean.cols() == w.cols());
  SBRL_CHECK(running_var.same_shape(running_mean));
  const Matrix& xv = x.value();
  const Matrix& wv = w.value();
  const int64_t n = xv.rows(), m = wv.cols();

  Matrix pre = AffineForwardInto(t, xv, wv, b.value());
  Matrix inv_std = t->NewZero(1, m);
  for (int64_t c = 0; c < m; ++c) {
    inv_std(0, c) = 1.0 / std::sqrt(running_var(0, c) + eps);
  }
  Matrix xhat = t->NewZero(n, m);
  BnInferActInPlace<Act>(n, m, pre.data(), xhat.data(), running_mean.data(),
                         inv_std.data(), gamma.value().data(),
                         beta.value().data());
  const int xi = x.id(), wi = w.id(), bi = b.id();
  const int gi = gamma.id(), ti = beta.id();
  const int self = t->size();
  return t->MakeNode(
      std::move(pre), {x, w, b, gamma, beta},
      [xi, wi, bi, gi, ti, self, xhat = std::move(xhat),
       inv_std = std::move(inv_std)](Tape* t) mutable {
        const Matrix& g = t->grad(self);
        const Matrix& yv = t->value(self);
        const Matrix& gv = t->value(gi);
        const int64_t n = yv.rows(), m = yv.cols();
        // g2 = dL/d(gamma * xhat + beta), reconstructed from the
        // output; the buffer is reused in place for dpre below.
        Matrix tmp = DpreFromOutput<Act>(t, g, yv);
        Matrix dgamma, dbeta;
        BnGammaBetaSums(tmp, xhat, &dgamma, &dbeta);
        // Frozen statistics: dpre is a plain per-column rescale.
        {
          double* td = tmp.data();
          const double* sd = inv_std.data();
          const double* gmd = gv.data();
          RowwiseFor(n, m, [td, sd, gmd, m](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              for (int64_t c = 0; c < m; ++c) {
                td[r * m + c] = td[r * m + c] * gmd[c] * sd[c];
              }
            }
          });
        }
        FinishBnBackward(t, xi, wi, bi, gi, ti, std::move(dgamma),
                         std::move(dbeta), std::move(tmp), std::move(xhat),
                         std::move(inv_std));
      });
}

}  // namespace

Var AffineBatchNormAct(Var x, Var w, Var b, Var gamma, Var beta, double eps,
                       ActKind act, Matrix* batch_mean, Matrix* batch_var) {
  return DispatchAct(act, [&](auto policy) {
    return AffineBatchNormActImpl<decltype(policy)>(x, w, b, gamma, beta,
                                                    eps, batch_mean,
                                                    batch_var);
  });
}

Var AffineBatchNormInferAct(Var x, Var w, Var b, Var gamma, Var beta,
                            const Matrix& running_mean,
                            const Matrix& running_var, double eps,
                            ActKind act) {
  return DispatchAct(act, [&](auto policy) {
    return AffineBatchNormInferActImpl<decltype(policy)>(
        x, w, b, gamma, beta, running_mean, running_var, eps);
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

Matrix AffineBatchNormInferActValue(const Matrix& x, const Matrix& w,
                                    const Matrix& b, const Matrix& gamma,
                                    const Matrix& beta,
                                    const Matrix& running_mean,
                                    const Matrix& running_var, double eps,
                                    ActKind act, MatrixPool* pool) {
  SBRL_CHECK_EQ(x.cols(), w.rows());
  SBRL_CHECK(b.rows() == 1 && b.cols() == w.cols());
  SBRL_CHECK(gamma.rows() == 1 && gamma.cols() == w.cols());
  SBRL_CHECK(beta.same_shape(gamma));
  SBRL_CHECK(running_mean.rows() == 1 && running_mean.cols() == w.cols());
  SBRL_CHECK(running_var.same_shape(running_mean));
  const int64_t n = x.rows(), m = w.cols();
  Matrix pre = pool != nullptr ? pool->AcquireZero(n, m) : Matrix(n, m);
  MatmulInto(x, w, &pre);
  AddRowBroadcastInPlace(n, m, pre.data(), b.data());
  Matrix inv_std(1, m);
  for (int64_t c = 0; c < m; ++c) {
    inv_std(0, c) = 1.0 / std::sqrt(running_var(0, c) + eps);
  }
  DispatchAct(act, [&](auto policy) {
    BnInferActInPlace<decltype(policy)>(n, m, pre.data(), /*hd=*/nullptr,
                                        running_mean.data(), inv_std.data(),
                                        gamma.data(), beta.data());
  });
  return pre;
}

Matrix NormalizeRowsValue(const Matrix& a, double eps) {
  Matrix out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    // Ascending-column accumulation of the squared row, matching
    // Square -> RowSum exactly; then the same sqrt/reciprocal chain.
    double acc = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) acc += a(r, c) * a(r, c);
    const double inv = 1.0 / std::sqrt(acc + eps);
    for (int64_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c) * inv;
  }
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

Var PairwiseSqDist(Var a, Var b) {
  Tape* t = SameTape(a, b);
  SBRL_CHECK_EQ(a.cols(), b.cols());
  const int ai = a.id(), bi = b.id(), self = t->size();
  return t->MakeNode(PairwiseSquaredDistances(a.value(), b.value()), {a, b},
                     [ai, bi, self](Tape* t) {
    const Matrix& g = t->grad(self);  // (n x m)
    const Matrix& av = t->value(ai);  // (n x d)
    const Matrix& bv = t->value(bi);  // (m x d)
    // dD_ij/da_i = 2 (a_i - b_j)  =>  da = 2 diag(rowsum g) a - 2 g b
    Matrix grow = sbrl::RowSum(g);                     // (n x 1)
    Matrix da = MulColBroadcast(av, grow) * 2.0;       // 2 a_i sum_j g_ij
    da -= sbrl::Matmul(g, bv) * 2.0;
    // dD_ij/db_j = 2 (b_j - a_i)  =>  db = 2 diag(colsum g) b - 2 g^T a
    Matrix gcol = sbrl::Transpose(sbrl::ColSum(g));    // (m x 1)
    Matrix db = MulColBroadcast(bv, gcol) * 2.0;
    db -= MatmulTransA(g, av) * 2.0;
    t->AccumulateGrad(ai, std::move(da));
    t->AccumulateGrad(bi, std::move(db));
  });
}

Var NormalizeRows(Var a, double eps) {
  Var sq_norm = RowSum(Square(a));            // (n x 1)
  Var inv = Reciprocal(Sqrt(AddConst(sq_norm, eps)));
  return MulCol(a, inv);
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
