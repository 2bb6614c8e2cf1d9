// Randomized equivalence tests for the tiled/parallel linear-algebra
// kernels against naive references, across odd and degenerate shapes
// (0-row, 1x1, non-multiple-of-tile), plus the MatrixPool recycling
// contract and the pooled autodiff ops (Affine, MatmulTransA).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "grad_check.h"
#include "reference_ops.h"
#include "tensor/linalg.h"
#include "tensor/pool.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

/// Naive reference transposed products (the tiled kernels' ground truth).
Matrix NaiveMatmulTransA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (int64_t i = 0; i < out.rows(); ++i) {
    for (int64_t j = 0; j < out.cols(); ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < a.rows(); ++p) acc += a(p, i) * b(p, j);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix NaiveMatmulTransB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (int64_t i = 0; i < out.rows(); ++i) {
    for (int64_t j = 0; j < out.cols(); ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(j, p);
      out(i, j) = acc;
    }
  }
  return out;
}

TEST(TiledMatmulTest, MatchesReferenceAcrossOddShapes) {
  Rng rng(41);
  // Odd, degenerate, and tile-straddling shapes: 0 rows, 1x1, primes,
  // exactly-one-tile, one-over-a-tile, and a shape crossing the
  // parallel cutoff.
  const std::vector<std::array<int64_t, 3>> shapes = {
      {0, 3, 4},  {3, 0, 4},   {3, 4, 0},   {1, 1, 1},    {2, 3, 5},
      {7, 11, 13}, {4, 4, 4},  {5, 4, 9},   {8, 128, 8},  {129, 7, 3},
      {33, 129, 65}, {257, 65, 129}};
  for (const auto& s : shapes) {
    Matrix a = rng.Randn(s[0], s[1]);
    Matrix b = rng.Randn(s[1], s[2]);
    Matrix want = MatmulReference(a, b);
    Matrix got = Matmul(a, b);
    EXPECT_TRUE(AllClose(want, got, 1e-12))
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(TiledMatmulTest, BitwiseIdenticalToReferenceOnDenseInputs) {
  // The blocked kernel keeps each output element's accumulation in
  // ascending k order, so on dense random inputs (no zero-skip) the
  // result must be bitwise identical to the seed's naive loop.
  Rng rng(42);
  Matrix a = rng.Randn(67, 33);
  Matrix b = rng.Randn(33, 129);
  Matrix want = MatmulReference(a, b);
  Matrix got = Matmul(a, b);
  ASSERT_TRUE(want.same_shape(got));
  for (int64_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "flat index " << i;
  }
}

TEST(TiledMatmulTest, TransAMatchesNaive) {
  Rng rng(43);
  const std::vector<std::array<int64_t, 3>> shapes = {
      {1, 1, 1}, {5, 3, 7}, {64, 31, 17}, {301, 33, 12}};
  for (const auto& s : shapes) {
    Matrix a = rng.Randn(s[0], s[1]);  // (k x n)
    Matrix b = rng.Randn(s[0], s[2]);  // (k x m)
    EXPECT_TRUE(AllClose(NaiveMatmulTransA(a, b), MatmulTransA(a, b), 1e-12));
  }
}

TEST(TiledMatmulTest, TransBMatchesNaive) {
  Rng rng(44);
  const std::vector<std::array<int64_t, 3>> shapes = {
      {1, 1, 1}, {5, 3, 7}, {63, 31, 18}, {301, 33, 13}};
  for (const auto& s : shapes) {
    Matrix a = rng.Randn(s[0], s[1]);  // (n x k)
    Matrix b = rng.Randn(s[2], s[1]);  // (m x k)
    EXPECT_TRUE(AllClose(NaiveMatmulTransB(a, b), MatmulTransB(a, b), 1e-12));
  }
}

TEST(TiledMatmulTest, IntoVariantsAccumulate) {
  Rng rng(45);
  Matrix a = rng.Randn(6, 5);
  Matrix b = rng.Randn(5, 4);
  Matrix out(6, 4, 0.0);
  MatmulInto(a, b, &out);
  MatmulInto(a, b, &out);  // second accumulation doubles the product
  Matrix twice = Matmul(a, b) * 2.0;
  EXPECT_TRUE(AllClose(twice, out, 1e-12));
}

TEST(TiledMatmulTest, TransposeMatchesElementwise) {
  Rng rng(46);
  for (const auto& s : std::vector<std::array<int64_t, 2>>{
           {0, 4}, {1, 1}, {7, 33}, {64, 64}, {129, 257}}) {
    Matrix a = rng.Randn(s[0], s[1]);
    Matrix t = Transpose(a);
    ASSERT_EQ(t.rows(), a.cols());
    ASSERT_EQ(t.cols(), a.rows());
    bool ok = true;
    for (int64_t r = 0; r < a.rows() && ok; ++r) {
      for (int64_t c = 0; c < a.cols() && ok; ++c) {
        ok = t(c, r) == a(r, c);
      }
    }
    EXPECT_TRUE(ok) << s[0] << "x" << s[1];
  }
}

TEST(MatrixPoolTest, RecyclesBuffersOfMatchingSize) {
  MatrixPool pool;
  Matrix m = pool.AcquireZero(4, 8);
  EXPECT_EQ(pool.alloc_count(), 1);
  const double* storage = m.data();
  m(0, 0) = 7.0;
  pool.Release(std::move(m));
  EXPECT_EQ(pool.free_count(), 1);

  // Same element count (different shape) reuses the same storage, zeroed.
  Matrix n = pool.AcquireZero(8, 4);
  EXPECT_EQ(pool.reuse_count(), 1);
  EXPECT_EQ(n.data(), storage);
  for (int64_t i = 0; i < n.size(); ++i) ASSERT_EQ(n[i], 0.0);

  // Different size allocates fresh.
  Matrix p = pool.AcquireZero(3, 3);
  EXPECT_EQ(pool.alloc_count(), 2);
  pool.Release(std::move(n));
  pool.Release(std::move(p));
  EXPECT_EQ(pool.free_count(), 2);
}

TEST(MatrixPoolTest, BestFitServesSmallerRequests) {
  // Arm-split shapes vary per shard in the out-of-core path; a parked
  // buffer must keep serving smaller requests (best fit), not only
  // exact element-count matches.
  MatrixPool pool;
  Matrix big = pool.AcquireZero(100, 8);
  const double* storage = big.data();
  pool.Release(std::move(big));
  Matrix smaller = pool.AcquireZero(73, 8);  // different element count
  EXPECT_EQ(pool.reuse_count(), 1);
  EXPECT_EQ(smaller.data(), storage);
  for (int64_t i = 0; i < smaller.size(); ++i) ASSERT_EQ(smaller[i], 0.0);
  // The shrunken buffer keeps its capacity and goes on serving.
  pool.Release(std::move(smaller));
  Matrix again = pool.AcquireZero(90, 8);
  EXPECT_EQ(pool.reuse_count(), 2);
  EXPECT_EQ(again.data(), storage);
}

TEST(MatrixPoolTest, ParkingIsDemandBounded) {
  // Buffers released without a matching acquire (plain-allocated tape
  // constants) must not grow the free list without bound: parking stops
  // at max(floor, 2x the demand high-water mark).
  MatrixPool pool;
  const int64_t floor_elements = int64_t{1} << 20;
  const int64_t chunk = 1 << 16;
  // No demand yet: the floor is the budget.
  for (int64_t parked = 0; parked < 4 * floor_elements; parked += chunk) {
    pool.Release(Matrix(chunk, 1));
  }
  EXPECT_LE(pool.free_elements(), floor_elements);
  EXPECT_GE(pool.free_elements(), floor_elements - chunk);
}

TEST(MatrixPoolTest, AcquireCopyMatchesSource) {
  MatrixPool pool;
  Rng rng(48);
  Matrix src = rng.Randn(5, 6);
  Matrix copy = pool.AcquireCopy(src);
  EXPECT_TRUE(AllClose(src, copy, 0.0));
  pool.Release(std::move(copy));
  Matrix again = pool.AcquireCopy(src);
  EXPECT_EQ(pool.reuse_count(), 1);
  EXPECT_TRUE(AllClose(src, again, 0.0));
}

TEST(PooledTapeTest, TrainingOpsIdenticalWithAndWithoutPool) {
  // The same small computation on a pooled and an unpooled tape must
  // produce identical values and gradients, and a second pooled tape
  // (reusing the first tape's buffers) must reproduce them again.
  Rng rng(49);
  Matrix xm = rng.Randn(9, 4);
  Matrix wm = rng.Randn(4, 3);
  Matrix bm = rng.Randn(1, 3);
  MatrixPool pool;

  auto run = [&](Tape* tape, Matrix* wgrad) {
    Var x = tape->Constant(xm);
    Var w = tape->Leaf(wm);
    Var b = tape->Leaf(bm);
    Var y = ops::Elu(ops::Affine(x, w, b));
    Var u = ops::MatmulTransA(y, y);  // (3 x 3)
    Var loss = ops::MeanAll(ops::Square(u));
    tape->Backward(loss);
    *wgrad = w.grad();
    return loss.value().scalar();
  };

  Tape plain;
  Matrix g_plain;
  const double v_plain = run(&plain, &g_plain);

  Matrix g_pool1, g_pool2;
  double v_pool1, v_pool2;
  {
    Tape t1(&pool);
    v_pool1 = run(&t1, &g_pool1);
  }
  EXPECT_GT(pool.free_count(), 0);  // tape 1 returned its buffers
  const int64_t allocs_before = pool.alloc_count();
  {
    Tape t2(&pool);
    v_pool2 = run(&t2, &g_pool2);
  }
  // Identical shapes => the second tape ran (almost) allocation-free.
  EXPECT_LE(pool.alloc_count(), allocs_before);

  EXPECT_EQ(v_plain, v_pool1);
  EXPECT_EQ(v_plain, v_pool2);
  EXPECT_TRUE(AllClose(g_plain, g_pool1, 0.0));
  EXPECT_TRUE(AllClose(g_plain, g_pool2, 0.0));
}

TEST(PooledOpsTest, AffineMatchesMatmulAddRow) {
  Rng rng(50);
  Matrix xm = rng.Randn(7, 5);
  Matrix wm = rng.Randn(5, 4);
  Matrix bm = rng.Randn(1, 4);

  Tape t1;
  Var y1 = ops::Affine(t1.Constant(xm), t1.Leaf(wm), t1.Leaf(bm));
  Tape t2;
  Var y2 = reference::AddRow(
      reference::Matmul(t2.Constant(xm), t2.Leaf(wm)), t2.Leaf(bm));
  EXPECT_TRUE(AllClose(y1.value(), y2.value(), 0.0));

  t1.Backward(ops::SumAll(ops::Square(y1)));
  t2.Backward(ops::SumAll(ops::Square(y2)));
  EXPECT_TRUE(AllClose(t1.grad(1), t2.grad(1), 1e-12));  // dW
  EXPECT_TRUE(AllClose(t1.grad(2), t2.grad(2), 1e-12));  // db
}

TEST(PooledOpsTest, MatmulTransAMatchesTransposeMatmul) {
  Rng rng(51);
  Matrix am = rng.Randn(8, 3);
  Matrix bm = rng.Randn(8, 4);

  Tape t1;
  Var a1 = t1.Leaf(am);
  Var out1 = ops::MatmulTransA(a1, t1.Constant(bm));
  Tape t2;
  Var a2 = t2.Leaf(am);
  Var out2 = reference::Matmul(reference::Transpose(a2), t2.Constant(bm));
  EXPECT_TRUE(AllClose(out1.value(), out2.value(), 0.0));

  t1.Backward(ops::SumAll(ops::Square(out1)));
  t2.Backward(ops::SumAll(ops::Square(out2)));
  EXPECT_TRUE(AllClose(a1.grad(), a2.grad(), 1e-12));
}

TEST(PooledOpsTest, MatmulTransAGradCheck) {
  Rng rng(52);
  Matrix am = rng.Randn(6, 3);
  Matrix bm = rng.Randn(6, 2);

  const auto loss_at = [&](const Matrix& a) {
    Tape tape;
    Var out = ops::MatmulTransA(tape.Constant(a), tape.Constant(bm));
    return ops::SumAll(ops::Square(out)).value().scalar();
  };
  Tape tape;
  Var a = tape.Leaf(am);
  Var b = tape.Leaf(bm);
  tape.Backward(ops::SumAll(ops::Square(ops::MatmulTransA(a, b))));
  EXPECT_LT(reference::MaxGradientError(loss_at, am, a.grad()), 1e-6);

  const auto loss_at_b = [&](const Matrix& bx) {
    Tape t;
    Var out = ops::MatmulTransA(t.Constant(am), t.Constant(bx));
    return ops::SumAll(ops::Square(out)).value().scalar();
  };
  EXPECT_LT(reference::MaxGradientError(loss_at_b, bm, b.grad()), 1e-6);
}

}  // namespace
}  // namespace sbrl
