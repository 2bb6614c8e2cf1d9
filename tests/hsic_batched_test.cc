// Equivalence and gradient coverage for the fused HSIC-RFF tier:
// HsicRffDecorrelationLoss must reproduce the unfused tape chain below
// bit for bit (loss and weight gradient, every ISA level, 1/2/4
// threads), agree with the per-pair reference formulation to the
// documented tolerance (relative 1e-9; the reference consumes the rng
// identically, so it sees the same RFF draws and pair subsets and
// differs only in FP summation order), and the block tape ops must pass
// numerical grad checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/thread_pool.h"
#include "core/independence_regularizer.h"
#include "grad_check.h"
#include "reference_hsic.h"
#include "reference_ops.h"
#include "stats/hsic.h"
#include "stats/feature_pairs.h"
#include "stats/rff.h"
#include "tensor/kernels.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

/// The documented agreement bound between the per-pair reference and
/// the batched loss: |reference - batched| <= kHsicModeRelTol *
/// max(1, |reference|), for the loss and each gradient element.
constexpr double kHsicModeRelTol = 1e-9;

/// Rows per parallel chunk so one chunk carries ~SerialCutoff() flops.
int64_t GrainRows(int64_t flops_per_row) {
  return std::max<int64_t>(
      1, SerialCutoff() / std::max<int64_t>(1, flops_per_row));
}

// ---------------------------------------------------------------------------
// The unfused tier chain, the oracle of the fused HSIC-RFF tier node:
// the weighted block cross and its adjoint (over all rows at once,
// parallel over pairs forward and rows backward), the block cross-cov
// and pair-Frobenius tape ops, and the chain Constant(F) ->
// BlockWeightedCrossCov -> MatmulTransA -> PairHsicFrobenius they
// formed inside HsicRffDecorrelationLoss.
// ---------------------------------------------------------------------------

/// Weighted block cross-products E_w[U^T V] for every pair in one
/// dispatch: ADDs (f[:, ai-block] .* w)^T * f[:, bi-block] into rows
/// [p*block, (p+1)*block) of `*out` for each pair p = (ai, bi), with
/// block = kRffFeatures.
void BlockPairWeightedCrossInto(
    const Matrix& f, const Matrix& w,
    const std::vector<std::pair<int64_t, int64_t>>& pairs, Matrix* out) {
  const int64_t block = kRffFeatures;
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_EQ(w.rows(), f.rows());
  const int64_t n = f.rows();
  const int64_t num_pairs = static_cast<int64_t>(pairs.size());
  SBRL_CHECK(out->rows() == num_pairs * block && out->cols() == block)
      << "BlockPairWeightedCross output shape " << out->ShapeString();
  for (const auto& [pa, pb] : pairs) {
    SBRL_CHECK(pa >= 0 && (pa + 1) * block <= f.cols())
        << "pair block " << pa << " out of range for " << f.ShapeString();
    SBRL_CHECK(pb >= 0 && (pb + 1) * block <= f.cols())
        << "pair block " << pb << " out of range for " << f.ShapeString();
  }
  if (n == 0 || num_pairs == 0) return;
  const double* fd = f.data();
  const double* wd = w.data();
  double* od = out->data();
  const int64_t fcols = f.cols();
  const std::pair<int64_t, int64_t>* pd = pairs.data();
  // The resolved ISA's block-cross forward accumulates each output
  // element's row terms in ascending order, so it is bitwise identical
  // across ISA levels (and == sliced MatmulTransA).
  const auto block_cross_fwd = ActiveLinalgKernels().block_cross_fwd;
  const auto run_pairs = [=](int64_t p0, int64_t p1) {
    block_cross_fwd(fd, wd, od, n, fcols, pd, p0, p1);
  };
  const int64_t flops_per_pair = n * block * block;
  if (num_pairs * flops_per_pair <= SerialCutoff()) {
    run_pairs(0, num_pairs);
    return;
  }
  ParallelFor(0, num_pairs, GrainRows(flops_per_pair), run_pairs);
}

/// Adjoint of BlockPairWeightedCrossInto: accumulates
///   dw(i)          += sum_p sum_{r,c} g_p(r,c) f(i, ar) f(i, bc)
///   df[:, ai-block] += w .* (f[:, bi-block] * g_p^T)
///   df[:, bi-block] += w .* (f[:, ai-block] * g_p)
/// `df` / `dw` may be null to skip that side.
void BlockPairWeightedCrossGradInto(
    const Matrix& g, const Matrix& f, const Matrix& w,
    const std::vector<std::pair<int64_t, int64_t>>& pairs, Matrix* df,
    Matrix* dw) {
  const int64_t block = kRffFeatures;
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_EQ(w.rows(), f.rows());
  const int64_t n = f.rows();
  const int64_t num_pairs = static_cast<int64_t>(pairs.size());
  SBRL_CHECK(g.rows() == num_pairs * block && g.cols() == block)
      << "BlockPairWeightedCrossGrad gradient shape " << g.ShapeString();
  if (df != nullptr) SBRL_CHECK(df->same_shape(f));
  if (dw != nullptr) SBRL_CHECK(dw->same_shape(w));
  if (n == 0 || num_pairs == 0 || (df == nullptr && dw == nullptr)) return;
  const double* gd = g.data();
  const double* fd = f.data();
  const double* wd = w.data();
  double* dfd = df != nullptr ? df->data() : nullptr;
  double* dwd = dw != nullptr ? dw->data() : nullptr;
  const int64_t fcols = f.cols();
  const std::pair<int64_t, int64_t>* pd = pairs.data();
  const int64_t flops_per_row = num_pairs * block * block;
  // The decorrelation loss differentiates only through the sample
  // weight (the stacked features are tape constants), so the dw-only
  // case runs the resolved ISA table's dw kernel; the general case
  // keeps the fused loop. The baseline dw kernel keeps this loop's
  // summation order bitwise; the wider ISAs regroup the dot products
  // (deterministic within a level, bounded against baseline — see
  // tensor/kernels.h).
  const auto block_cross_grad_dw = ActiveLinalgKernels().block_cross_grad_dw;
  const auto run_rows = [=](int64_t r0, int64_t r1) {
    if (dfd == nullptr) {
      block_cross_grad_dw(gd, fd, dwd, fcols, pd, num_pairs, r0, r1);
      return;
    }
    for (int64_t i = r0; i < r1; ++i) {
      const double* frow = fd + i * fcols;
      const double wi = wd[i];
      double dw_acc = 0.0;
      for (int64_t p = 0; p < num_pairs; ++p) {
        const int64_t ca = pd[p].first * block;
        const int64_t cb = pd[p].second * block;
        const double* gblock = gd + p * block * block;
        for (int64_t r = 0; r < block; ++r) {
          const double* grow = gblock + r * block;
          // s_r = sum_c g_p(r, c) f(i, bc) feeds both dw and df.
          double s = 0.0;
          for (int64_t c = 0; c < block; ++c) s += grow[c] * frow[cb + c];
          dw_acc += frow[ca + r] * s;
          if (dfd != nullptr) {
            double* dfrow = dfd + i * fcols;
            dfrow[ca + r] += wi * s;
            const double av = wi * frow[ca + r];
            for (int64_t c = 0; c < block; ++c) {
              dfrow[cb + c] += av * grow[c];
            }
          }
        }
      }
      if (dwd != nullptr) dwd[i] += dw_acc;
    }
  };
  if (n * flops_per_row <= SerialCutoff()) {
    run_rows(0, n);
    return;
  }
  ParallelFor(0, n, GrainRows(flops_per_row), run_rows);
}

/// Weighted batched pair cross-covariances E_w[U^T V] as one tape node
/// over BlockPairWeightedCrossInto and its adjoint.
Var BlockWeightedCrossCov(
    Var f, Var w, const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  const int64_t block = kRffFeatures;
  Tape* t = f.tape();
  SBRL_CHECK(w.tape() == t);
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_EQ(w.rows(), f.rows());
  const int64_t num_pairs = static_cast<int64_t>(pairs.size());
  SBRL_CHECK_GT(num_pairs, 0);
  Matrix out = t->NewZero(num_pairs * block, block);
  BlockPairWeightedCrossInto(f.value(), w.value(), pairs, &out);
  const int fi = f.id(), wi = w.id(), self = t->size();
  return t->MakeNode(std::move(out), {f, w},
                     [fi, wi, self, pairs](Tape* t) {
    const Matrix& g = t->grad(self);
    const Matrix& fv = t->value(fi);
    const Matrix& wv = t->value(wi);
    const bool need_f = t->requires_grad(fi);
    const bool need_w = t->requires_grad(wi);
    Matrix df, dw;
    if (need_f) df = t->NewZero(fv.rows(), fv.cols());
    if (need_w) dw = t->NewZero(wv.rows(), 1);
    BlockPairWeightedCrossGradInto(g, fv, wv, pairs,
                                   need_f ? &df : nullptr,
                                   need_w ? &dw : nullptr);
    if (need_f) t->AccumulateGrad(fi, std::move(df));
    if (need_w) t->AccumulateGrad(wi, std::move(dw));
  });
}

/// Scalar pair loss sum_p || cross_p - mu_{a_p} mu_{b_p}^T ||_F^2 from
/// stacked cross blocks and weighted feature means, as one tape node.
Var PairHsicFrobenius(Var cross, Var means,
                      const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  const int64_t block = kRffFeatures;
  Tape* t = cross.tape();
  SBRL_CHECK(means.tape() == t);
  const int64_t num_pairs = static_cast<int64_t>(pairs.size());
  SBRL_CHECK(cross.rows() == num_pairs * block && cross.cols() == block)
      << "cross blocks shape " << cross.value().ShapeString();
  SBRL_CHECK_EQ(means.rows(), 1);
  for (const auto& [pa, pb] : pairs) {
    SBRL_CHECK(pa >= 0 && (pa + 1) * block <= means.cols());
    SBRL_CHECK(pb >= 0 && (pb + 1) * block <= means.cols());
  }
  const Matrix& cv = cross.value();
  const Matrix& mv = means.value();
  const double* cd = cv.data();
  const double* md = mv.data();
  Matrix out = t->NewZero(1, 1);
  double acc = 0.0;
  for (int64_t p = 0; p < num_pairs; ++p) {
    const double* ma = md + pairs[static_cast<size_t>(p)].first * block;
    const double* mb = md + pairs[static_cast<size_t>(p)].second * block;
    const double* cblock = cd + p * block * block;
    double sub = 0.0;
    for (int64_t r = 0; r < block; ++r) {
      const double mar = ma[r];
      const double* crow = cblock + r * block;
      for (int64_t c = 0; c < block; ++c) {
        const double v = crow[c] - mar * mb[c];
        sub += v * v;
      }
    }
    acc += sub;
  }
  out(0, 0) = acc;
  const int ci = cross.id(), mi = means.id(), self = t->size();
  return t->MakeNode(std::move(out), {cross, means},
                     [ci, mi, self, pairs](Tape* t) {
    const double g = t->grad(self).scalar();
    const Matrix& cv = t->value(ci);
    const Matrix& mv = t->value(mi);
    const double* cd = cv.data();
    const double* md = mv.data();
    const int64_t num_pairs = static_cast<int64_t>(pairs.size());
    const bool need_c = t->requires_grad(ci);
    const bool need_m = t->requires_grad(mi);
    Matrix dc, dm;
    if (need_c) dc = t->NewZero(cv.rows(), cv.cols());
    if (need_m) dm = t->NewZero(1, mv.cols());
    double* dcd = need_c ? dc.data() : nullptr;
    double* dmd = need_m ? dm.data() : nullptr;
    // d/d cross_p(r, c) = 2 g resid; d/d mu_a(r) = -2 g sum_c resid
    // mu_b(c) and symmetrically for mu_b. The residual is recomputed
    // from the stored forward values instead of being kept alive.
    for (int64_t p = 0; p < num_pairs; ++p) {
      const int64_t ca = pairs[static_cast<size_t>(p)].first * block;
      const int64_t cb = pairs[static_cast<size_t>(p)].second * block;
      const double* ma = md + ca;
      const double* mb = md + cb;
      const double* cblock = cd + p * block * block;
      for (int64_t r = 0; r < block; ++r) {
        const double mar = ma[r];
        const double* crow = cblock + r * block;
        double dma_acc = 0.0;
        for (int64_t c = 0; c < block; ++c) {
          const double resid = crow[c] - mar * mb[c];
          const double dresid = 2.0 * g * resid;
          if (need_c) dcd[p * block * block + r * block + c] = dresid;
          if (need_m) {
            dma_acc += dresid * mb[c];
            dmd[cb + c] -= dresid * mar;
          }
        }
        if (need_m) dmd[ca + r] -= dma_acc;
      }
    }
    if (need_c) t->AccumulateGrad(ci, std::move(dc));
    if (need_m) t->AccumulateGrad(mi, std::move(dm));
  });
}

/// The unfused HSIC-RFF tier in HsicRffDecorrelationLoss's standalone
/// rng order (pair subset, compact column map, epoch seed).
Var UnfusedTierLoss(const Matrix& z, Var w, int64_t budget, Rng& rng) {
  const int64_t k = kRffFeatures;
  Tape* tape = w.tape();
  Var w_norm = ops::DivScalar(w, ops::SumAll(w));
  const FeaturePairSelection sel = SelectFeaturePairs(z.cols(), budget, rng);
  const CompactPairBlocks blocks = CompactUsedColumns(z.cols(), sel.pairs);
  RffSlotDraws draws{rng.engine()(), {}};
  Matrix stacked(z.rows(), static_cast<int64_t>(blocks.used_cols.size()) * k);
  StackRffRows(z, MakeRffStack(blocks.used_cols, &draws), 0, z.rows(),
               &stacked);
  Var f = tape->Constant(std::move(stacked));
  Var cross = BlockWeightedCrossCov(f, w_norm, blocks.block_pairs);
  Var means = ops::MatmulTransA(w_norm, f);
  Var loss = PairHsicFrobenius(cross, means, blocks.block_pairs);
  return ops::Scale(loss, sel.Rescale());
}

/// Per-pair reference formulation of HsicRffDecorrelationLoss (its
/// standalone path: no caller-supplied epoch, vectorized cosines). It
/// consumes `rng` in the same order — pair subset, compact column map,
/// then one epoch-seed draw — samples the same per-column slots and
/// stacks the same features, then sums, over sliced (n x k) feature
/// blocks u, v of every selected pair, the weighted HSIC-RFF statistic
///   || E_w[u^T v] - E_w[u]^T E_w[v] ||_F^2
/// one small tape op at a time.
Var PerPairReferenceLoss(const Matrix& z, Var w, int64_t budget, Rng& rng) {
  const int64_t k = kRffFeatures;
  Tape* tape = w.tape();
  const int64_t d = z.cols();
  Var w_norm = ops::DivScalar(w, ops::SumAll(w));
  const FeaturePairSelection sel = SelectFeaturePairs(d, budget, rng);
  const CompactPairBlocks blocks = CompactUsedColumns(d, sel.pairs);
  RffSlotDraws draws{rng.engine()(), {}};
  Matrix stacked(z.rows(), static_cast<int64_t>(blocks.used_cols.size()) * k);
  StackRffRows(z, MakeRffStack(blocks.used_cols, &draws), 0, z.rows(),
               &stacked);
  Var f = tape->Constant(std::move(stacked));
  Var fw = ops::MulCol(f, w_norm);
  Var loss = tape->Constant(Matrix::Zeros(1, 1));
  for (const auto& [a, b] : blocks.block_pairs) {
    Var e_uv = ops::MatmulTransA(reference::SliceCols(fw, a * k, k),
                                 reference::SliceCols(f, b * k, k));
    Var e_u = ops::MatmulTransA(w_norm, reference::SliceCols(f, a * k, k));
    Var e_v = ops::MatmulTransA(w_norm, reference::SliceCols(f, b * k, k));
    Var outer = ops::MatmulTransA(e_u, e_v);
    loss = ops::Add(loss, ops::SumAll(ops::Square(ops::Sub(e_uv, outer))));
  }
  return ops::Scale(loss, sel.Rescale());
}

/// Loss value and weight gradient of the production loss, or of the
/// per-pair reference when `reference` is set, under rng seed `seed`.
double LossAndGrad(const Matrix& z, const Matrix& w_val, int64_t budget,
                   uint64_t seed, bool reference, Matrix* grad_out) {
  Tape tape;
  Var w = tape.Leaf(w_val);
  Rng rng(seed);
  Var loss = reference ? PerPairReferenceLoss(z, w, budget, rng)
                       : HsicRffDecorrelationLoss(z, w, budget, rng);
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
  const double reference = LossAndGrad(z, w_val, budget, 42,
                                       /*reference=*/true, &grad_reference);
  const double batched = LossAndGrad(z, w_val, budget, 42,
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
// Grad checks on the block ops of the unfused chain.
// ---------------------------------------------------------------------------

TEST(BlockOpsGradTest, BlockWeightedCrossCovGradChecksAndMatchesUnfused) {
  Rng rng(21);
  const int64_t n = 14, d = 4, k = kRffFeatures;
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
        ops::Square(BlockWeightedCrossCov(f, w, pairs)));
  };
  Tape tape;
  Var f, w;
  Var loss = loss_of(f0, w0, &tape, &f, &w);
  tape.Backward(loss);
  // Fused == per-pair MatmulTransA of the sliced MulCol(F, w) and F
  // columns, bitwise.
  {
    Tape t2;
    Var f2 = t2.Leaf(f0);
    Var fw = ops::MulCol(f2, t2.Leaf(w0));
    Tape t3;
    const Matrix fused =
        BlockWeightedCrossCov(t3.Leaf(f0), t3.Leaf(w0), pairs).value();
    for (size_t p = 0; p < pairs.size(); ++p) {
      const Matrix want =
          ops::MatmulTransA(reference::SliceCols(fw, pairs[p].first * k, k),
                            reference::SliceCols(f2, pairs[p].second * k, k))
              .value();
      for (int64_t r = 0; r < k; ++r) {
        for (int64_t c = 0; c < k; ++c) {
          EXPECT_EQ(fused(static_cast<int64_t>(p) * k + r, c), want(r, c))
              << "pair " << p << " element (" << r << ", " << c << ")";
        }
      }
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
  EXPECT_LT(reference::MaxGradientError(f_f, f0, f.grad()), 1e-5);
  EXPECT_LT(reference::MaxGradientError(f_w, w0, w.grad()), 1e-5);
}

TEST(BlockOpsGradTest, PairHsicFrobeniusGradChecks) {
  Rng rng(9);
  const int64_t d = 4, k = kRffFeatures;
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 1}, {1, 3}, {2, 3}};
  Matrix cross0 = rng.Randn(static_cast<int64_t>(pairs.size()) * k, k);
  Matrix means0 = rng.Randn(1, d * k);
  const auto loss_of = [&](const Matrix& cv, const Matrix& mv, Tape* tape,
                           Var* c_out, Var* m_out) {
    Var c = tape->Leaf(cv);
    Var m = tape->Leaf(mv);
    if (c_out != nullptr) *c_out = c;
    if (m_out != nullptr) *m_out = m;
    return PairHsicFrobenius(c, m, pairs);
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
  EXPECT_LT(reference::MaxGradientError(f_c, cross0, c.grad()), 1e-5);
  EXPECT_LT(reference::MaxGradientError(f_m, means0, m.grad()), 1e-5);
}

TEST(BlockOpsGradTest, BatchedDecorrelationLossGradChecksEndToEnd) {
  Rng data_rng(10);
  const int64_t n = 30, d = 3;
  Matrix z = data_rng.Randn(n, d);
  Matrix w0 = data_rng.Rand(n, 1, 0.5, 2.0);
  Tape tape;
  Var w = tape.Leaf(w0);
  Rng rng(11);
  Var loss = HsicRffDecorrelationLoss(z, w, 0, rng);
  tape.Backward(loss);
  const auto f = [&](const Matrix& w_val) {
    Tape t;
    Var wv = t.Leaf(w_val);
    Rng r(11);  // same RFF draws on every evaluation
    return HsicRffDecorrelationLoss(z, wv, 0, r).value().scalar();
  };
  EXPECT_LT(reference::MaxGradientError(f, w0, w.grad()), 1e-5);
}

// ---------------------------------------------------------------------------
// Fused tier node == the unfused chain, bit for bit.
// ---------------------------------------------------------------------------

/// Loss and weight gradient of one tier, fused or through the unfused
/// chain, under rng seed `seed`.
double TierLossAndGrad(const Matrix& z, const Matrix& w_val, int64_t budget,
                       uint64_t seed, bool unfused, Matrix* grad_out) {
  Tape tape;
  Var w = tape.Leaf(w_val);
  Rng rng(seed);
  Var loss = unfused ? UnfusedTierLoss(z, w, budget, rng)
                     : HsicRffDecorrelationLoss(z, w, budget, rng);
  tape.Backward(loss);
  *grad_out = w.grad();
  return loss.value().scalar();
}

TEST(FusedTierTest, LossAndGradBitwiseEqualUnfusedChain) {
  // Row counts on both sides of the row blocks and the kernels' row
  // tiles, through each level's register kernels. The fused forward
  // sweeps F in row blocks that resume the cross and means
  // accumulators, so a kernel that restarted them at zero per block
  // fails here.
  const int initial_workers = ThreadPool::GlobalParallelism() - 1;
  for (int threads : {1, 2, 4}) {
    ThreadPool::ResetGlobalForTest(threads - 1);
    for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
      if (isa > MaxSupportedIsa()) continue;
      ScopedThreadIsa pin(isa);
      for (int64_t n : {1, 31, 32, 33, 450, 1001}) {
        Rng data_rng(500 + static_cast<uint64_t>(n));
        const Matrix z = data_rng.Randn(n, 12);
        const Matrix w_val = data_rng.Rand(n, 1, 0.5, 2.0);
        Matrix grad_fused, grad_unfused;
        const double fused = TierLossAndGrad(z, w_val, 20, 77,
                                             /*unfused=*/false, &grad_fused);
        const double unfused = TierLossAndGrad(z, w_val, 20, 77,
                                               /*unfused=*/true,
                                               &grad_unfused);
        const std::string where = std::string(IsaName(isa)) + " n=" +
                                  std::to_string(n) + " threads=" +
                                  std::to_string(threads);
        ASSERT_EQ(fused, unfused) << where;
        ASSERT_TRUE(grad_fused.same_shape(grad_unfused)) << where;
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(grad_fused[i], grad_unfused[i])
              << where << " grad row " << i;
        }
      }
    }
  }
  ThreadPool::ResetGlobalForTest(initial_workers);
}

TEST(FusedTierTest, PairwiseStatisticIsTheFusedForward) {
  // reference::PairwiseWeightedHsicRff runs the same forward in the
  // same rng order as the standalone tier, so both read the same number.
  Rng data_rng(31);
  const Matrix z = data_rng.Randn(300, 9);
  const Matrix w_val = data_rng.Rand(300, 1, 0.5, 2.0);
  Rng stat_rng(8);
  const double stat =
      reference::PairwiseWeightedHsicRff(z, w_val, stat_rng, 10);
  Matrix grad;
  const double loss = TierLossAndGrad(z, w_val, 10, 8, /*unfused=*/true,
                                      &grad);
  EXPECT_EQ(stat, loss);
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
