#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <tuple>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "grad_check.h"
#include "reference_ops.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

// Builds f: Matrix -> double from a Var graph and checks the analytic
// gradient at `x` against central differences.
void CheckGradient(const std::function<Var(Tape&, Var)>& graph,
                   const Matrix& x, double tol = 1e-6) {
  Tape tape;
  Var leaf = tape.Leaf(x);
  Var loss = graph(tape, leaf);
  ASSERT_TRUE(loss.value().is_scalar());
  tape.Backward(loss);
  const Matrix analytic = leaf.grad();
  auto f = [&graph](const Matrix& probe) {
    Tape t2;
    Var l = t2.Leaf(probe);
    return graph(t2, l).value().scalar();
  };
  EXPECT_LT(reference::MaxGradientError(f, x, analytic), tol);
}

TEST(TapeTest, ConstantHasNoGradient) {
  Tape tape;
  Var c = tape.Constant(Matrix::Ones(2, 2));
  EXPECT_FALSE(tape.requires_grad(c.id()));
}

TEST(TapeTest, LeafReceivesGradient) {
  Tape tape;
  Var x = tape.Leaf(Matrix::FromRows({{3.0}}));
  Var y = ops::Square(x);
  tape.Backward(y);
  EXPECT_DOUBLE_EQ(x.grad().scalar(), 6.0);
}

TEST(TapeTest, GradAccumulatesAcrossUses) {
  Tape tape;
  Var x = tape.Leaf(Matrix::FromRows({{2.0}}));
  Var y = ops::Add(x, x);  // y = 2x -> dy/dx = 2
  tape.Backward(y);
  EXPECT_DOUBLE_EQ(x.grad().scalar(), 2.0);
}

TEST(TapeTest, BackwardRequiresScalar) {
  Tape tape;
  Var x = tape.Leaf(Matrix::Ones(2, 2));
  Var y = ops::Square(x);
  EXPECT_DEATH(tape.Backward(y), "scalar");
}

TEST(TapeTest, MixingTapesDies) {
  Tape t1, t2;
  Var a = t1.Leaf(Matrix::Ones(1, 1));
  Var b = t2.Leaf(Matrix::Ones(1, 1));
  EXPECT_DEATH(ops::Add(a, b), "different tapes");
}

TEST(TapeTest, ShapeMismatchDies) {
  Tape tape;
  Var a = tape.Leaf(Matrix::Ones(2, 2));
  Var b = tape.Leaf(Matrix::Ones(2, 3));
  EXPECT_DEATH(ops::Add(a, b), "CHECK failed");
}

TEST(OpsForwardTest, AddSubMulValues) {
  Tape tape;
  Var a = tape.Constant(Matrix::FromRows({{4, 9}}));
  Var b = tape.Constant(Matrix::FromRows({{2, 3}}));
  EXPECT_TRUE(AllClose(ops::Add(a, b).value(), Matrix::FromRows({{6, 12}})));
  EXPECT_TRUE(AllClose(ops::Sub(a, b).value(), Matrix::FromRows({{2, 6}})));
  EXPECT_TRUE(AllClose(ops::Mul(a, b).value(), Matrix::FromRows({{8, 27}})));
}

TEST(OpsForwardTest, ActivationValues) {
  Tape tape;
  Var x = tape.Constant(Matrix::FromRows({{0.0, 1.0, -1.0}}));
  const Matrix elu = ops::Elu(x).value();
  EXPECT_DOUBLE_EQ(elu(0, 1), 1.0);
  EXPECT_NEAR(elu(0, 2), std::expm1(-1.0), 1e-12);
  const Matrix sp = ops::Softplus(x).value();
  EXPECT_NEAR(sp(0, 0), std::log(2.0), 1e-12);
}

TEST(OpsForwardTest, ReductionValues) {
  Tape tape;
  Var x = tape.Constant(Matrix::FromRows({{1, 2}, {3, 4}}));
  EXPECT_DOUBLE_EQ(ops::SumAll(x).value().scalar(), 10.0);
  EXPECT_DOUBLE_EQ(ops::MeanAll(x).value().scalar(), 2.5);
  EXPECT_DOUBLE_EQ(ops::RowSum(x).value()(1, 0), 7.0);
}

TEST(OpsForwardTest, SelectRowsByTreatment) {
  Tape tape;
  Var a = tape.Constant(Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}}));
  Var b = tape.Constant(Matrix::FromRows({{9, 9}, {8, 8}, {7, 7}}));
  Var sel = ops::SelectRowsByTreatment(a, b, {1, 0, 1});
  EXPECT_TRUE(AllClose(sel.value(),
                       Matrix::FromRows({{1, 1}, {8, 8}, {3, 3}})));
}

TEST(OpsForwardTest, SliceCols) {
  Tape tape;
  Var x = tape.Constant(Matrix::FromRows({{1, 2, 3}, {4, 5, 6}}));
  Var s = reference::SliceCols(x, 1, 2);
  EXPECT_TRUE(AllClose(s.value(), Matrix::FromRows({{2, 3}, {5, 6}})));
}

TEST(OpsForwardTest, SigmoidCrossEntropyMatchesDefinition) {
  Tape tape;
  Matrix labels = Matrix::FromRows({{1.0, 0.0}});
  Var logits = tape.Constant(Matrix::FromRows({{2.0, -3.0}}));
  Matrix loss = ops::SigmoidCrossEntropyWithLogits(logits, labels).value();
  // -log(sigmoid(2)) and -log(1 - sigmoid(-3))
  EXPECT_NEAR(loss(0, 0), -std::log(1.0 / (1.0 + std::exp(-2.0))), 1e-10);
  EXPECT_NEAR(loss(0, 1), -std::log(1.0 - 1.0 / (1.0 + std::exp(3.0))),
              1e-10);
}

// ---------------------------------------------------------------------------
// Exhaustive numerical gradient checks, one per op.
// ---------------------------------------------------------------------------

TEST(GradCheckTest, AddThenSum) {
  Rng rng(21);
  Matrix x = rng.Randn(3, 4);
  CheckGradient(
      [](Tape& t, Var v) {
        Var other = t.Leaf(Matrix::Constant(3, 4, 0.5));
        return ops::SumAll(ops::Add(v, other));
      },
      x);
}

TEST(GradCheckTest, SubMulComposite) {
  Rng rng(22);
  Matrix x = rng.Rand(3, 3, 0.5, 2.0);
  CheckGradient(
      [](Tape& t, Var v) {
        Var c = t.Constant(Matrix::Constant(3, 3, 1.5));
        Var d = ops::Mul(ops::Mul(v, v), ops::Sub(v, c));
        return ops::SumAll(d);
      },
      x, 1e-5);
}

TEST(GradCheckTest, AddRowBroadcast) {
  Rng rng(23);
  Matrix x = rng.Randn(1, 4);
  CheckGradient(
      [](Tape& t, Var v) {
        Var a = t.Constant(Rng(99).Randn(5, 4));
        return ops::SumAll(ops::Square(reference::AddRow(a, v)));
      },
      x);
}

TEST(GradCheckTest, MulColBroadcastBothSides) {
  Rng rng(26);
  Matrix x = rng.Randn(6, 1);
  CheckGradient(
      [](Tape& t, Var v) {
        Var a = t.Leaf(Rng(96).Randn(6, 3));
        return ops::SumAll(ops::Square(ops::MulCol(a, v)));
      },
      x);
}

TEST(GradCheckTest, DivScalarScalarSide) {
  Rng rng(27);
  Matrix x = rng.Rand(1, 1, 0.5, 2.0);
  CheckGradient(
      [](Tape& t, Var v) {
        Var a = t.Constant(Rng(95).Randn(4, 2));
        return ops::SumAll(
            ops::Square(ops::DivScalar(a, ops::AddConst(v, 1.0))));
      },
      x, 1e-5);
}

TEST(GradCheckTest, UnaryActivations) {
  struct Case {
    std::string name;
    std::function<Var(Var)> op;
    double lo, hi;
  };
  const std::vector<Case> cases = {
      {"square", [](Var v) { return ops::Square(v); }, -2.0, 2.0},
      {"softplus", [](Var v) { return ops::Softplus(v); }, -3.0, 3.0},
      {"elu", [](Var v) { return ops::Elu(v); }, -2.0, 2.0},
      {"abs", [](Var v) { return ops::Abs(v); }, 0.3, 2.0},
      {"addconst", [](Var v) { return ops::AddConst(v, 3.0); }, -2.0, 2.0},
      {"scale", [](Var v) { return ops::Scale(v, -1.7); }, -2.0, 2.0},
  };
  int idx = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(100 + idx++);
    Matrix x = rng.Rand(3, 3, c.lo, c.hi);
    CheckGradient(
        [&c](Tape&, Var v) { return ops::SumAll(ops::Square(c.op(v))); }, x,
        1e-5);
  }
}

TEST(GradCheckTest, MatmulLeft) {
  Rng rng(30);
  Matrix x = rng.Randn(3, 4);
  CheckGradient(
      [](Tape& t, Var v) {
        Var b = t.Constant(Rng(94).Randn(4, 2));
        return ops::SumAll(ops::Square(reference::Matmul(v, b)));
      },
      x, 1e-4);
}

TEST(GradCheckTest, MatmulRight) {
  Rng rng(31);
  Matrix x = rng.Randn(4, 2);
  CheckGradient(
      [](Tape& t, Var v) {
        Var a = t.Constant(Rng(93).Randn(3, 4));
        return ops::SumAll(ops::Square(reference::Matmul(a, v)));
      },
      x, 1e-4);
}

TEST(GradCheckTest, Transpose) {
  Rng rng(32);
  Matrix x = rng.Randn(3, 5);
  CheckGradient(
      [](Tape& t, Var v) {
        Var b = t.Constant(Rng(92).Randn(3, 2));
        return ops::SumAll(
            ops::Square(reference::Matmul(reference::Transpose(v), b)));
      },
      x, 1e-4);
}

TEST(GradCheckTest, Reductions) {
  Rng rng(33);
  Matrix x = rng.Randn(4, 3);
  CheckGradient([](Tape&, Var v) { return ops::SumAll(v); }, x);
  CheckGradient([](Tape&, Var v) { return ops::MeanAll(v); }, x);
  CheckGradient(
      [](Tape&, Var v) { return ops::SumAll(ops::Square(ops::RowSum(v))); },
      x, 1e-5);
  CheckGradient(
      [](Tape&, Var v) { return ops::SumAll(ops::Square(ops::ColSum(v))); },
      x, 1e-5);
}

TEST(GradCheckTest, GatherRows) {
  Rng rng(34);
  Matrix x = rng.Randn(5, 3);
  std::vector<int64_t> idx = {0, 0, 3, 4};
  CheckGradient(
      [&idx](Tape&, Var v) {
        return ops::SumAll(ops::Square(ops::GatherRows(v, idx)));
      },
      x, 1e-5);
}

TEST(GradCheckTest, ConcatCols) {
  Rng rng(35);
  Matrix x = rng.Randn(3, 2);
  CheckGradient(
      [](Tape& t, Var v) {
        Var b = t.Leaf(Rng(91).Randn(3, 4));
        return ops::SumAll(ops::Square(ops::ConcatCols(v, b)));
      },
      x, 1e-5);
}

TEST(GradCheckTest, SelectRowsByTreatment) {
  Rng rng(36);
  Matrix x = rng.Randn(4, 3);
  const std::vector<int> t_assign = {1, 0, 1, 0};
  CheckGradient(
      [&t_assign](Tape& t, Var v) {
        Var b = t.Leaf(Rng(90).Randn(4, 3));
        return ops::SumAll(
            ops::Square(ops::SelectRowsByTreatment(v, b, t_assign)));
      },
      x, 1e-5);
}

TEST(GradCheckTest, SliceCols) {
  Rng rng(37);
  Matrix x = rng.Randn(3, 5);
  CheckGradient(
      [](Tape&, Var v) {
        return ops::SumAll(ops::Square(reference::SliceCols(v, 1, 3)));
      },
      x, 1e-5);
}

TEST(GradCheckTest, SigmoidCrossEntropy) {
  Rng rng(38);
  Matrix x = rng.Randn(4, 1);
  Matrix labels = Matrix::FromRows({{1}, {0}, {1}, {0}});
  CheckGradient(
      [&labels](Tape&, Var v) {
        return ops::SumAll(ops::SigmoidCrossEntropyWithLogits(v, labels));
      },
      x, 1e-5);
}

TEST(GradCheckTest, DeepCompositeNetworkLikeGraph) {
  // A miniature 2-layer network with ELU and a weighted BCE loss; checks
  // end-to-end gradient flow through the op set used by real training.
  Rng rng(42);
  Matrix w1 = rng.Randn(3, 4, 0.0, 0.5);
  Matrix features = Rng(86).Randn(6, 3);
  Matrix labels(6, 1);
  for (int i = 0; i < 6; ++i) labels(i, 0) = i % 2;
  CheckGradient(
      [&](Tape& t, Var v) {
        Var x = t.Constant(features);
        Var h = ops::Elu(reference::Matmul(x, v));
        Var w2 = t.Constant(Rng(85).Randn(4, 1));
        Var logits = reference::Matmul(h, w2);
        Var losses = ops::SigmoidCrossEntropyWithLogits(logits, labels);
        Var weights = t.Constant(Rng(84).Rand(6, 1, 0.5, 1.5));
        Var weighted_sum = ops::SumAll(ops::Mul(losses, weights));
        return ops::DivScalar(weighted_sum, ops::SumAll(weights));
      },
      w1, 1e-5);
}

// ---------------------------------------------------------------------------
// Audit fills (PR 4): ops that previously lacked direct grad coverage.
// The block-diagonal HSIC ops (the unfused tier oracle's
// BlockWeightedCrossCov / PairHsicFrobenius) are grad-checked in
// tests/hsic_batched_test.cc.
// ---------------------------------------------------------------------------

TEST(GradCheckTest, BroadcastOpsMatrixSide) {
  // AddRow previously only checked the broadcast operand;
  // differentiate the full matrix side here.
  Rng rng(44);
  Matrix x = rng.Randn(4, 3);
  CheckGradient(
      [](Tape& t, Var v) {
        Var row = t.Leaf(Rng(83).Randn(1, 3));
        return ops::SumAll(ops::Square(reference::AddRow(v, row)));
      },
      x, 1e-5);
}

TEST(GradCheckTest, ScalarOpsMatrixSide) {
  // DivScalar previously only differentiated the scalar.
  Rng rng(45);
  Matrix x = rng.Randn(3, 4);
  CheckGradient(
      [](Tape& t, Var v) {
        Var s = t.Leaf(Matrix::Constant(1, 1, 1.7));
        return ops::SumAll(ops::Square(ops::DivScalar(v, s)));
      },
      x, 1e-5);
}

TEST(GradCheckTest, AffineAllArguments) {
  Rng rng(46);
  Matrix x0 = rng.Randn(5, 3);
  Matrix w0 = Rng(80).Randn(3, 2);
  Matrix b0 = Rng(79).Randn(1, 2);
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(
            ops::Affine(v, t.Leaf(w0), t.Leaf(b0))));
      },
      x0, 1e-4);
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(
            ops::Affine(t.Leaf(x0), v, t.Leaf(b0))));
      },
      w0, 1e-4);
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(
            ops::Affine(t.Leaf(x0), t.Leaf(w0), v)));
      },
      b0, 1e-4);
}

TEST(GradCheckTest, MatmulTransABothSidesAndForward) {
  Rng rng(47);
  Matrix a0 = rng.Randn(5, 3);
  Matrix b0 = Rng(78).Randn(5, 2);
  {
    // Forward equals the transpose composition to strict tolerance.
    Tape t;
    Var fused = ops::MatmulTransA(t.Constant(a0), t.Constant(b0));
    Var composed = reference::Matmul(
        reference::Transpose(t.Constant(a0)), t.Constant(b0));
    EXPECT_TRUE(AllClose(fused.value(), composed.value(), 1e-12));
  }
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(ops::MatmulTransA(v, t.Leaf(b0))));
      },
      a0, 1e-4);
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(ops::MatmulTransA(t.Leaf(a0), v)));
      },
      b0, 1e-4);
}

// ---------------------------------------------------------------------------
// Fused network-step ops (PR 4): forward must reproduce the reference
// composition to 1e-9 relative, backward must pass numerical grad
// checks for every differentiable argument.
// ---------------------------------------------------------------------------

const std::vector<ops::ActKind>& AllActKinds() {
  static const std::vector<ops::ActKind> kinds = {ops::ActKind::kIdentity,
                                                  ops::ActKind::kElu};
  return kinds;
}

/// Reference composition of AffineAct: Affine followed by the
/// standalone activation op.
Var ReferenceAffineAct(Var x, Var w, Var b, ops::ActKind act) {
  Var pre = ops::Affine(x, w, b);
  return act == ops::ActKind::kElu ? ops::Elu(pre) : pre;
}

TEST(FusedOpsTest, AffineActForwardMatchesReferenceBitwise) {
  Rng rng(48);
  Matrix x0 = rng.Randn(6, 4);
  Matrix w0 = Rng(77).Randn(4, 3);
  Matrix b0 = Rng(76).Randn(1, 3);
  for (ops::ActKind act : AllActKinds()) {
    SCOPED_TRACE(static_cast<int>(act));
    Tape t;
    Var fused = ops::AffineAct(t.Constant(x0), t.Constant(w0),
                               t.Constant(b0), act);
    Var reference = ReferenceAffineAct(t.Constant(x0), t.Constant(w0),
                                       t.Constant(b0), act);
    ASSERT_TRUE(fused.value().same_shape(reference.value()));
    for (int64_t i = 0; i < fused.value().size(); ++i) {
      EXPECT_EQ(fused.value()[i], reference.value()[i]) << "element " << i;
    }
  }
}

TEST(FusedOpsTest, AffineActGradsMatchReferenceBitwise) {
  // The fused backward reconstructs the activation derivative from the
  // output; for every ActKind this is the same double arithmetic the
  // reference chain performs, so gradients match bit for bit.
  Rng rng(49);
  Matrix x0 = rng.Randn(6, 4);
  Matrix w0 = Rng(75).Randn(4, 3);
  Matrix b0 = Rng(74).Randn(1, 3);
  for (ops::ActKind act : AllActKinds()) {
    SCOPED_TRACE(static_cast<int>(act));
    Tape t1;
    Var x1 = t1.Leaf(x0), w1 = t1.Leaf(w0), b1 = t1.Leaf(b0);
    t1.Backward(ops::SumAll(ops::Square(ops::AffineAct(x1, w1, b1, act))));
    Tape t2;
    Var x2 = t2.Leaf(x0), w2 = t2.Leaf(w0), b2 = t2.Leaf(b0);
    t2.Backward(ops::SumAll(
        ops::Square(ReferenceAffineAct(x2, w2, b2, act))));
    for (int64_t i = 0; i < x0.size(); ++i) {
      EXPECT_EQ(x1.grad()[i], x2.grad()[i]) << "dx element " << i;
    }
    for (int64_t i = 0; i < w0.size(); ++i) {
      EXPECT_EQ(w1.grad()[i], w2.grad()[i]) << "dw element " << i;
    }
    for (int64_t i = 0; i < b0.size(); ++i) {
      EXPECT_EQ(b1.grad()[i], b2.grad()[i]) << "db element " << i;
    }
  }
}

TEST(GradCheckTest, AffineActAllArguments) {
  Rng rng(50);
  Matrix x0 = rng.Randn(5, 3);
  Matrix w0 = Rng(73).Randn(3, 2);
  Matrix b0 = Rng(72).Randn(1, 2);
  for (ops::ActKind act : AllActKinds()) {
    SCOPED_TRACE(static_cast<int>(act));
    CheckGradient(
        [&](Tape& t, Var v) {
          return ops::SumAll(ops::Square(
              ops::AffineAct(v, t.Leaf(w0), t.Leaf(b0), act)));
        },
        x0, 1e-4);
    CheckGradient(
        [&](Tape& t, Var v) {
          return ops::SumAll(ops::Square(
              ops::AffineAct(t.Leaf(x0), v, t.Leaf(b0), act)));
        },
        w0, 1e-4);
    CheckGradient(
        [&](Tape& t, Var v) {
          return ops::SumAll(ops::Square(
              ops::AffineAct(t.Leaf(x0), t.Leaf(w0), v, act)));
        },
        b0, 1e-4);
  }
}

TEST(FusedOpsTest, ScatterRowsByTreatmentInvertsSelect) {
  Rng rng(57);
  const std::vector<int> t_assign = {1, 0, 0, 1, 0};
  Matrix a0 = rng.Randn(2, 3);  // treated rows in ascending order
  Matrix b0 = Rng(51).Randn(3, 3);
  Tape t;
  Var scattered = ops::ScatterRowsByTreatment(t.Constant(a0),
                                              t.Constant(b0), t_assign);
  // Row i carries the next row of its arm.
  EXPECT_EQ(scattered.value()(0, 0), a0(0, 0));
  EXPECT_EQ(scattered.value()(1, 0), b0(0, 0));
  EXPECT_EQ(scattered.value()(2, 0), b0(1, 0));
  EXPECT_EQ(scattered.value()(3, 0), a0(1, 0));
  EXPECT_EQ(scattered.value()(4, 0), b0(2, 0));
  // Select on a scatter of the same arms is the identity per row.
  Var reselected = ops::SelectRowsByTreatment(scattered, scattered,
                                              t_assign);
  EXPECT_TRUE(AllClose(reselected.value(), scattered.value(), 0.0));
}

TEST(GradCheckTest, ScatterRowsByTreatmentBothArms) {
  Rng rng(58);
  const std::vector<int> t_assign = {1, 0, 1, 1, 0};
  Matrix a0 = rng.Randn(3, 2);
  Matrix b0 = Rng(50).Randn(2, 2);
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(
            ops::ScatterRowsByTreatment(v, t.Leaf(b0), t_assign)));
      },
      a0, 1e-5);
  CheckGradient(
      [&](Tape& t, Var v) {
        return ops::SumAll(ops::Square(
            ops::ScatterRowsByTreatment(t.Leaf(a0), v, t_assign)));
      },
      b0, 1e-5);
}

// Parameterized sweep: gradients hold across shapes for core binary ops.
class BinaryOpShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BinaryOpShapeSweep, AddSubMulGradients) {
  const auto [rows, cols] = GetParam();
  Rng rng(50 + rows * 7 + cols);
  Matrix x = rng.Rand(rows, cols, 0.5, 1.5);
  CheckGradient(
      [](Tape& t, Var v) {
        Var c = t.Constant(Matrix::Constant(v.rows(), v.cols(), 0.7));
        Var y = ops::Mul(ops::Add(v, c), ops::Sub(v, c));
        return ops::SumAll(ops::Square(y));
      },
      x, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BinaryOpShapeSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5),
                                            ::testing::Values(1, 3, 8)));

}  // namespace
}  // namespace sbrl
