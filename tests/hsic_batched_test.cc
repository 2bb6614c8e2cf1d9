// Equivalence and gradient coverage for the batched block-diagonal
// HSIC-RFF pair kernel: HsicRffDecorrelationLoss must agree with the
// per-pair reference formulation below to the documented tolerance
// (relative 1e-9; the reference consumes the rng identically, so it
// sees the same RFF draws and pair subsets and differs only in FP
// summation order), and the block tensor ops must pass numerical grad
// checks.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "autodiff/grad_check.h"
#include "core/independence_regularizer.h"
#include "stats/feature_pairs.h"
#include "stats/rff.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

/// The documented agreement bound between the per-pair reference and
/// the batched loss: |reference - batched| <= kHsicModeRelTol *
/// max(1, |reference|), for the loss and each gradient element.
constexpr double kHsicModeRelTol = 1e-9;

/// Per-pair reference formulation of HsicRffDecorrelationLoss (its
/// standalone path: no caller-supplied epoch, vectorized cosines). It
/// consumes `rng` in the same order — pair subset, compact column map,
/// then one epoch-seed draw — samples the same per-column slots and
/// stacks the same features, then sums, over sliced (n x k) feature
/// blocks u, v of every selected pair, the weighted HSIC-RFF statistic
///   || E_w[u^T v] - E_w[u]^T E_w[v] ||_F^2
/// one small tape op at a time.
Var PerPairReferenceLoss(const Matrix& z, Var w, int64_t k, int64_t budget,
                         Rng& rng) {
  Tape* tape = w.tape();
  const int64_t d = z.cols();
  Var w_norm = ops::DivScalar(w, ops::SumAll(w));
  const FeaturePairSelection sel = SelectFeaturePairs(d, budget, rng);
  const CompactPairBlocks blocks = CompactUsedColumns(d, sel.pairs);
  RffSlotDraws draws{rng.engine()(), {}};
  Matrix stacked(z.rows(), static_cast<int64_t>(blocks.used_cols.size()) * k);
  StackRffColumns(z, blocks.used_cols, k, &draws, &stacked);
  Var f = tape->Constant(std::move(stacked));
  Var fw = ops::MulCol(f, w_norm);
  Var loss = tape->Constant(Matrix::Zeros(1, 1));
  for (const auto& [a, b] : blocks.block_pairs) {
    Var e_uv = ops::MatmulTransA(ops::SliceCols(fw, a * k, k),
                                 ops::SliceCols(f, b * k, k));
    Var e_u = ops::MatmulTransA(w_norm, ops::SliceCols(f, a * k, k));
    Var e_v = ops::MatmulTransA(w_norm, ops::SliceCols(f, b * k, k));
    Var outer = ops::MatmulTransA(e_u, e_v);
    loss = ops::Add(loss, ops::SumAll(ops::Square(ops::Sub(e_uv, outer))));
  }
  return ops::Scale(loss, sel.Rescale());
}

/// Loss value and weight gradient of the production loss, or of the
/// per-pair reference when `reference` is set, under rng seed `seed`.
double LossAndGrad(const Matrix& z, const Matrix& w_val, int64_t k,
                   int64_t budget, uint64_t seed, bool reference,
                   Matrix* grad_out) {
  Tape tape;
  Var w = tape.Leaf(w_val);
  Rng rng(seed);
  Var loss = reference ? PerPairReferenceLoss(z, w, k, budget, rng)
                       : HsicRffDecorrelationLoss(z, w, k, budget, rng);
  tape.Backward(loss);
  *grad_out = w.grad();
  return loss.value().scalar();
}

// ---------------------------------------------------------------------------
// Reference-vs-batched agreement across shapes and budgets.
// ---------------------------------------------------------------------------

class HsicModeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HsicModeEquivalence, LossesAgreeWithinDocumentedTolerance) {
  const auto [d, budget] = GetParam();
  const int64_t n = 80;
  Rng data_rng(1000 + static_cast<uint64_t>(d));
  Matrix z = data_rng.Randn(n, d);
  Matrix w_val = data_rng.Rand(n, 1, 0.5, 2.0);  // non-uniform weights
  Matrix grad_reference, grad_batched;
  const double reference = LossAndGrad(z, w_val, 5, budget, 42,
                                       /*reference=*/true, &grad_reference);
  const double batched = LossAndGrad(z, w_val, 5, budget, 42,
                                     /*reference=*/false, &grad_batched);
  EXPECT_GT(reference, 0.0);
  EXPECT_NEAR(batched, reference,
              kHsicModeRelTol * std::max(1.0, reference));
  // The weight gradient must agree too — it is what the optimizer sees.
  ASSERT_TRUE(grad_reference.same_shape(grad_batched));
  for (int64_t i = 0; i < grad_reference.size(); ++i) {
    EXPECT_NEAR(grad_batched[i], grad_reference[i],
                kHsicModeRelTol * std::max(1.0, std::abs(grad_reference[i])))
        << "grad element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndBudgets, HsicModeEquivalence,
    ::testing::Combine(::testing::Values(2, 5, 16),
                       ::testing::Values(0, 5)));

// ---------------------------------------------------------------------------
// Block kernel forward: bitwise per-pair MatmulTransA equivalence.
// ---------------------------------------------------------------------------

TEST(BlockPairMatmulTest, MatchesSlicedMatmulTransABitwise) {
  Rng rng(7);
  const int64_t n = 40, d = 6, k = 3;
  Matrix a = rng.Randn(n, d * k);
  Matrix b = rng.Randn(n, d * k);
  std::vector<std::pair<int64_t, int64_t>> pairs = {
      {0, 1}, {0, 5}, {2, 3}, {4, 4}, {1, 0}};
  Matrix out(static_cast<int64_t>(pairs.size()) * k, k);
  BlockPairMatmulTransAInto(a, b, k, pairs, &out);
  for (size_t p = 0; p < pairs.size(); ++p) {
    Matrix ablock(n, k), bblock(n, k);
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < k; ++c) {
        ablock(r, c) = a(r, pairs[p].first * k + c);
        bblock(r, c) = b(r, pairs[p].second * k + c);
      }
    }
    Matrix want = MatmulTransA(ablock, bblock);
    for (int64_t r = 0; r < k; ++r) {
      for (int64_t c = 0; c < k; ++c) {
        EXPECT_EQ(out(static_cast<int64_t>(p) * k + r, c), want(r, c))
            << "pair " << p << " element (" << r << ", " << c << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Grad checks on the new block ops.
// ---------------------------------------------------------------------------

TEST(BlockOpsGradTest, BlockMatmulTransAGradChecks) {
  Rng rng(8);
  const int64_t n = 12, d = 4, k = 3;
  Matrix a0 = rng.Randn(n, d * k);
  Matrix b0 = rng.Randn(n, d * k);
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 1}, {1, 3}, {2, 1}};
  const auto loss_of = [&](const Matrix& av, const Matrix& bv, Tape* tape,
                           Var* a_out, Var* b_out) {
    Var a = tape->Leaf(av);
    Var b = tape->Leaf(bv);
    if (a_out != nullptr) *a_out = a;
    if (b_out != nullptr) *b_out = b;
    return ops::SumAll(ops::Square(ops::BlockMatmulTransA(a, b, k, pairs)));
  };
  Tape tape;
  Var a, b;
  Var loss = loss_of(a0, b0, &tape, &a, &b);
  tape.Backward(loss);
  const auto f_a = [&](const Matrix& av) {
    Tape t;
    return loss_of(av, b0, &t, nullptr, nullptr).value().scalar();
  };
  const auto f_b = [&](const Matrix& bv) {
    Tape t;
    return loss_of(a0, bv, &t, nullptr, nullptr).value().scalar();
  };
  EXPECT_LT(MaxGradientError(f_a, a0, a.grad()), 1e-5);
  EXPECT_LT(MaxGradientError(f_b, b0, b.grad()), 1e-5);
}

TEST(BlockOpsGradTest, BlockWeightedCrossCovGradChecksAndMatchesUnfused) {
  Rng rng(21);
  const int64_t n = 14, d = 4, k = 3;
  Matrix f0 = rng.Randn(n, d * k);
  Matrix w0 = rng.Rand(n, 1, 0.5, 2.0);
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 1}, {1, 3}, {2, 1}};
  const auto loss_of = [&](const Matrix& fv, const Matrix& wv, Tape* tape,
                           Var* f_out, Var* w_out) {
    Var f = tape->Leaf(fv);
    Var w = tape->Leaf(wv);
    if (f_out != nullptr) *f_out = f;
    if (w_out != nullptr) *w_out = w;
    return ops::SumAll(
        ops::Square(ops::BlockWeightedCrossCov(f, w, k, pairs)));
  };
  Tape tape;
  Var f, w;
  Var loss = loss_of(f0, w0, &tape, &f, &w);
  tape.Backward(loss);
  // Fused == MulCol + BlockMatmulTransA, bitwise.
  {
    Tape t2;
    Var f2 = t2.Leaf(f0);
    Var w2 = t2.Leaf(w0);
    Var unfused = ops::BlockMatmulTransA(ops::MulCol(f2, w2), f2, k, pairs);
    Tape t3;
    Var f3 = t3.Leaf(f0);
    Var w3 = t3.Leaf(w0);
    Var fused = ops::BlockWeightedCrossCov(f3, w3, k, pairs);
    ASSERT_TRUE(fused.value().same_shape(unfused.value()));
    for (int64_t i = 0; i < fused.value().size(); ++i) {
      EXPECT_EQ(fused.value()[i], unfused.value()[i]);
    }
  }
  const auto f_f = [&](const Matrix& fv) {
    Tape t;
    return loss_of(fv, w0, &t, nullptr, nullptr).value().scalar();
  };
  const auto f_w = [&](const Matrix& wv) {
    Tape t;
    return loss_of(f0, wv, &t, nullptr, nullptr).value().scalar();
  };
  EXPECT_LT(MaxGradientError(f_f, f0, f.grad()), 1e-5);
  EXPECT_LT(MaxGradientError(f_w, w0, w.grad()), 1e-5);
}

TEST(BlockOpsGradTest, PairHsicFrobeniusGradChecks) {
  Rng rng(9);
  const int64_t d = 4, k = 3;
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 1}, {1, 3}, {2, 3}};
  Matrix cross0 = rng.Randn(static_cast<int64_t>(pairs.size()) * k, k);
  Matrix means0 = rng.Randn(1, d * k);
  const auto loss_of = [&](const Matrix& cv, const Matrix& mv, Tape* tape,
                           Var* c_out, Var* m_out) {
    Var c = tape->Leaf(cv);
    Var m = tape->Leaf(mv);
    if (c_out != nullptr) *c_out = c;
    if (m_out != nullptr) *m_out = m;
    return ops::PairHsicFrobenius(c, m, k, pairs);
  };
  Tape tape;
  Var c, m;
  Var loss = loss_of(cross0, means0, &tape, &c, &m);
  tape.Backward(loss);
  const auto f_c = [&](const Matrix& cv) {
    Tape t;
    return loss_of(cv, means0, &t, nullptr, nullptr).value().scalar();
  };
  const auto f_m = [&](const Matrix& mv) {
    Tape t;
    return loss_of(cross0, mv, &t, nullptr, nullptr).value().scalar();
  };
  EXPECT_LT(MaxGradientError(f_c, cross0, c.grad()), 1e-5);
  EXPECT_LT(MaxGradientError(f_m, means0, m.grad()), 1e-5);
}

TEST(BlockOpsGradTest, BatchedDecorrelationLossGradChecksEndToEnd) {
  Rng data_rng(10);
  const int64_t n = 30, d = 3;
  Matrix z = data_rng.Randn(n, d);
  Matrix w0 = data_rng.Rand(n, 1, 0.5, 2.0);
  Tape tape;
  Var w = tape.Leaf(w0);
  Rng rng(11);
  Var loss = HsicRffDecorrelationLoss(z, w, 4, 0, rng);
  tape.Backward(loss);
  const auto f = [&](const Matrix& w_val) {
    Tape t;
    Var wv = t.Leaf(w_val);
    Rng r(11);  // same RFF draws on every evaluation
    return HsicRffDecorrelationLoss(z, wv, 4, 0, r).value().scalar();
  };
  EXPECT_LT(MaxGradientError(f, w0, w.grad()), 1e-5);
}

// ---------------------------------------------------------------------------
// Pair selection: full-budget fast path and duplicate-freeness.
// ---------------------------------------------------------------------------

TEST(FeaturePairSelectionTest, FullBudgetSkipsSamplingAndConsumesNoRandomness) {
  Rng rng(12), untouched(12);
  for (int64_t budget : {int64_t{0}, int64_t{10}, int64_t{100}}) {
    FeaturePairSelection sel = SelectFeaturePairs(5, budget, rng);
    ASSERT_EQ(sel.total_pairs, 10);
    ASSERT_EQ(sel.pairs.size(), 10u);  // 10 >= budget or budget == 0
    EXPECT_DOUBLE_EQ(sel.Rescale(), 1.0);
    size_t idx = 0;
    for (int64_t a = 0; a < 5; ++a) {
      for (int64_t b = a + 1; b < 5; ++b) {
        EXPECT_EQ(sel.pairs[idx].first, a);
        EXPECT_EQ(sel.pairs[idx].second, b);
        ++idx;
      }
    }
  }
  // The full-budget path never touched the generator.
  EXPECT_EQ(rng.UniformInt(0, 1 << 30), untouched.UniformInt(0, 1 << 30));
}

TEST(FeaturePairSelectionTest, SubsampledPairsAreDistinctAndInRange) {
  Rng rng(13);
  const int64_t d = 9;
  FeaturePairSelection sel = SelectFeaturePairs(d, 12, rng);
  EXPECT_EQ(sel.total_pairs, 36);
  ASSERT_EQ(sel.pairs.size(), 12u);
  EXPECT_DOUBLE_EQ(sel.Rescale(), 3.0);
  std::vector<std::pair<int64_t, int64_t>> seen;
  for (const auto& [a, b] : sel.pairs) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, b);
    EXPECT_LT(b, d);
    for (const auto& prior : seen) EXPECT_NE(prior, std::make_pair(a, b));
    seen.emplace_back(a, b);
  }
}

// ---------------------------------------------------------------------------
// Parallel elementwise ops: large shapes cross the dispatch cutoff and
// must match the serial definition exactly.
// ---------------------------------------------------------------------------

TEST(ParallelElementwiseTest, LargeEluMatchesSerialDefinition) {
  Rng rng(14);
  const int64_t n = 320, m = 320;  // > 64K elements: parallel path
  Matrix x = rng.Randn(n, m);
  Tape tape;
  Var xv = tape.Leaf(x);
  Var y = ops::Elu(xv);
  tape.Backward(ops::SumAll(y));
  for (int64_t i : {int64_t{0}, int64_t{12345}, n * m - 1}) {
    const double want = x[i] > 0.0 ? x[i] : std::expm1(x[i]);
    EXPECT_DOUBLE_EQ(y.value()[i], want);
    const double want_grad = x[i] > 0.0 ? 1.0 : want + 1.0;
    EXPECT_DOUBLE_EQ(xv.grad()[i], want_grad);
  }
}

}  // namespace
}  // namespace sbrl
