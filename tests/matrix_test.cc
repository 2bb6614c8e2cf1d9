#include "tensor/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/aligned.h"
#include "tensor/linalg.h"
#include "tensor/pool.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

TEST(MatrixTest, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 0.0);
}

TEST(MatrixTest, ConstantFill) {
  Matrix m(2, 2, 7.5);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 7.5);
}

TEST(MatrixTest, FromRowsLaysOutRowMajor) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 2), 3);
  EXPECT_EQ(m(1, 0), 4);
  EXPECT_EQ(m(1, 2), 6);
}

TEST(MatrixTest, ColumnAndRowVectorFactories) {
  Matrix col = Matrix::ColumnVector({1, 2, 3});
  EXPECT_EQ(col.rows(), 3);
  EXPECT_EQ(col.cols(), 1);
  EXPECT_EQ(col(2, 0), 3);
  Matrix row = Matrix::RowVector({4, 5});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 2);
  EXPECT_EQ(row(0, 1), 5);
}

TEST(MatrixTest, IdentityHasUnitDiagonal) {
  Matrix eye = Matrix::Identity(3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, ScalarAccessor) {
  Matrix m(1, 1, 42.0);
  EXPECT_TRUE(m.is_scalar());
  EXPECT_EQ(m.scalar(), 42.0);
}

TEST(MatrixTest, ArithmeticOperators) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 11);
  EXPECT_EQ(sum(1, 1), 44);
  Matrix diff = b - a;
  EXPECT_EQ(diff(0, 1), 18);
  Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 0), 6);
  Matrix scaled2 = 0.5 * b;
  EXPECT_EQ(scaled2(0, 0), 5);
}

TEST(MatrixTest, ReductionHelpers) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(m.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.MaxValue(), 4.0);
  EXPECT_DOUBLE_EQ(m.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(m.Norm(), std::sqrt(30.0));
}

TEST(MatrixTest, RowAndColExtraction) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix c1 = m.Col(1);
  EXPECT_EQ(c1.rows(), 2);
  EXPECT_EQ(c1(0, 0), 2);
  EXPECT_EQ(c1(1, 0), 5);
  Matrix r1 = m.Row(1);
  EXPECT_EQ(r1.cols(), 3);
  EXPECT_EQ(r1(0, 0), 4);
}

TEST(MatrixTest, AllCloseDetectsDifferences) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1, 2.0000001}});
  EXPECT_TRUE(AllClose(a, b, 1e-5));
  EXPECT_FALSE(AllClose(a, b, 1e-9));
  Matrix c(2, 1);
  EXPECT_FALSE(AllClose(a, c, 1.0));  // shape mismatch
}

// Alignment contract (common/aligned.h): every backing allocation —
// plain-constructed, FromFlat-adopted, and pool-recycled — starts on
// a 64-byte boundary so AVX-512 loads from data() hit aligned paths.
TEST(MatrixTest, BackingStorageIs64ByteAligned) {
  // Odd shapes so alignment cannot fall out of size rounding.
  Matrix plain(7, 5);
  EXPECT_TRUE(IsTensorAligned(plain.data()));

  AlignedVector<double> flat(21, 1.5);
  Matrix adopted = Matrix::FromFlat(3, 7, std::move(flat));
  EXPECT_TRUE(IsTensorAligned(adopted.data()));

  MatrixPool pool;
  Matrix pooled = pool.AcquireZero(11, 3);
  EXPECT_TRUE(IsTensorAligned(pooled.data()));
  pool.Release(std::move(pooled));
  // A recycled buffer must stay aligned through the free list.
  Matrix recycled = pool.AcquireZero(5, 5);
  EXPECT_TRUE(IsTensorAligned(recycled.data()));
}

// Capacity survives shrinking Resets — the invariant MatrixPool keys
// its free list on.
TEST(MatrixTest, CapacitySurvivesShrinkingReset) {
  Matrix m(16, 16);
  const int64_t cap = m.capacity();
  EXPECT_GE(cap, m.size());
  m.ResetZero(4, 4);
  EXPECT_GE(m.capacity(), cap);
  EXPECT_TRUE(IsTensorAligned(m.data()));
}

TEST(LinalgTest, MatmulSmall) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = Matmul(a, b);
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(LinalgTest, MatmulIdentity) {
  Rng rng(1);
  Matrix a = rng.Randn(5, 5);
  EXPECT_TRUE(AllClose(Matmul(a, Matrix::Identity(5)), a, 1e-12));
  EXPECT_TRUE(AllClose(Matmul(Matrix::Identity(5), a), a, 1e-12));
}

TEST(LinalgTest, MatmulTransVariantsAgreeWithExplicitTranspose) {
  Rng rng(2);
  Matrix a = rng.Randn(4, 3);
  Matrix b = rng.Randn(4, 5);
  EXPECT_TRUE(AllClose(MatmulTransA(a, b), Matmul(Transpose(a), b), 1e-12));
  Matrix c = rng.Randn(6, 3);
  EXPECT_TRUE(AllClose(MatmulTransB(a, c), Matmul(a, Transpose(c)), 1e-12));
}

TEST(LinalgTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix a = rng.Randn(3, 7);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a, 0.0));
}

TEST(LinalgTest, RowColSumsAndMeans) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix rs = RowSum(m);
  EXPECT_EQ(rs(0, 0), 6);
  EXPECT_EQ(rs(1, 0), 15);
  Matrix cs = ColSum(m);
  EXPECT_EQ(cs(0, 0), 5);
  EXPECT_EQ(cs(0, 2), 9);
  EXPECT_DOUBLE_EQ(RowMean(m)(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(ColMean(m)(0, 1), 3.5);
}

TEST(LinalgTest, HadamardAndMap) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{2, 2}, {2, 2}});
  Matrix h = Hadamard(a, b);
  EXPECT_EQ(h(1, 1), 8);
  Matrix sq = Map(a, [](double x) { return x * x; });
  EXPECT_EQ(sq(1, 0), 9);
}

TEST(LinalgTest, Broadcasts) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix row = Matrix::RowVector({10, 20});
  Matrix ar = AddRowBroadcast(a, row);
  EXPECT_EQ(ar(0, 0), 11);
  EXPECT_EQ(ar(1, 1), 24);
  Matrix col = Matrix::ColumnVector({2, 3});
  Matrix mc = MulColBroadcast(a, col);
  EXPECT_EQ(mc(0, 1), 4);
  EXPECT_EQ(mc(1, 0), 9);
}

TEST(LinalgTest, GatherScatterAreAdjoint) {
  Rng rng(4);
  Matrix a = rng.Randn(5, 3);
  std::vector<int64_t> idx = {4, 0, 0, 2};
  Matrix g = GatherRows(a, idx);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_EQ(g(0, 0), a(4, 0));
  EXPECT_EQ(g(1, 2), a(0, 2));
  // Scatter of ones counts index multiplicity.
  Matrix ones = Matrix::Ones(4, 3);
  Matrix s = ScatterAddRows(ones, idx, 5);
  EXPECT_EQ(s(0, 0), 2.0);  // index 0 appears twice
  EXPECT_EQ(s(4, 0), 1.0);
  EXPECT_EQ(s(1, 0), 0.0);
  EXPECT_EQ(s(3, 0), 0.0);
}

TEST(LinalgTest, Concats) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5}, {6}});
  Matrix cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_EQ(cc(1, 2), 6);
  Matrix c = Matrix::FromRows({{7, 8}});
  Matrix cr = ConcatRows(a, c);
  EXPECT_EQ(cr.rows(), 3);
  EXPECT_EQ(cr(2, 1), 8);
}

TEST(LinalgTest, PairwiseSquaredDistances) {
  Matrix a = Matrix::FromRows({{0, 0}, {1, 0}});
  Matrix b = Matrix::FromRows({{0, 0}, {0, 2}, {3, 4}});
  Matrix d = PairwiseSquaredDistances(a, b);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 25.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 2), 20.0);
}

TEST(LinalgTest, DotAndStdDev) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(Dot(a, b), 10.0);
  Matrix c = Matrix::FromRows({{2, 2}, {2, 2}});
  EXPECT_DOUBLE_EQ(StdDev(c), 0.0);
}

TEST(RandomTest, DeterministicWithSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
  EXPECT_TRUE(AllClose(Rng(7).Randn(3, 3), Rng(7).Randn(3, 3), 0.0));
}

TEST(RandomTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(8.0, 16.0);
    EXPECT_GE(v, 8.0);
    EXPECT_LT(v, 16.0);
  }
}

TEST(RandomTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(6);
  Matrix z = rng.Randn(20000, 1, 2.0, 3.0);
  EXPECT_NEAR(z.Mean(), 2.0, 0.1);
  EXPECT_NEAR(StdDev(z), 3.0, 0.1);
}

TEST(RandomTest, PermutationIsBijection) {
  Rng rng(8);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int64_t v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
}

TEST(RandomTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  auto s = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(s.size(), 10u);
  std::sort(s.begin(), s.end());
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
}

TEST(RandomTest, ForkProducesDifferentStream) {
  Rng rng(10);
  Rng child = rng.Fork();
  // Parent and child should not emit identical sequences.
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    if (rng.Uniform() != child.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Mt19937BlockTest, MatchesStdEngineAcrossRefills) {
  // 2e6 draws cross ~6400 block refills per seed.
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{42}, ~uint64_t{0}}) {
    std::mt19937_64 reference(seed);
    Mt19937_64Block block(seed);
    int64_t mismatches = 0;
    for (int i = 0; i < 2000000; ++i) mismatches += reference() != block();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(Mt19937BlockTest, RngDrawsMatchReplicas) {
  // The synthetic generator's calibration replaces Rng::Normal with
  // StdNormal on a block engine; both must read the same stream.
  Rng rng(2024);
  Mt19937_64Block block(2024);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(rng.Normal(), StdNormal(block)) << "draw " << i;
    ASSERT_EQ(rng.Uniform(), Canonical53(block)) << "draw " << i;
  }
}

#ifdef __GLIBCXX__
// The replicas reproduce libstdc++'s algorithms, so the bitwise
// comparison against the std distributions is only meaningful there.
TEST(Mt19937BlockTest, ReplicasMatchStdDistributions) {
  constexpr int kDraws = 1000000;
  {
    std::mt19937_64 reference(7);
    Mt19937_64Block block(7);
    int64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      mismatches += std::generate_canonical<double, 53>(reference) !=
                    Canonical53(block);
    }
    EXPECT_EQ(mismatches, 0) << "generate_canonical";
  }
  {
    std::mt19937_64 reference(8);
    Mt19937_64Block block(8);
    int64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      std::normal_distribution<double> fresh(0.0, 1.0);
      mismatches += fresh(reference) != StdNormal(block);
    }
    EXPECT_EQ(mismatches, 0) << "normal_distribution";
  }
  {
    std::mt19937_64 reference(9);
    Mt19937_64Block block(9);
    std::mt19937_64 p_source(10);
    const double fixed_p[] = {0.0, 1.0, 0.5, 1e-300, 0.3};
    int64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      const double p = i % 2 == 0 ? fixed_p[(i / 2) % 5]
                                  : std::generate_canonical<double, 53>(p_source);
      std::bernoulli_distribution dist(p);
      // std::bernoulli_distribution(p) is one canonical draw, `< p`.
      mismatches += dist(reference) != (Canonical53(block) < p);
    }
    EXPECT_EQ(mismatches, 0) << "bernoulli_distribution";
  }
}
#endif  // __GLIBCXX__

// Replays a fixed list of 64-bit outputs, to hit conversion edge cases
// a seeded engine reaches only rarely.
struct StubEngine {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return values.at(next++); }
  std::vector<uint64_t> values;
  size_t next = 0;
};

TEST(Mt19937BlockTest, CanonicalEdgeCases) {
  constexpr uint64_t kTop = uint64_t{1} << 63;
  const std::vector<uint64_t> edges = {
      0, 1, (uint64_t{1} << 53) + 1, kTop - 1, kTop, kTop + 1,
      kTop + 1024,        // tie between 2^63 and its successor: to even
      kTop + 3 * 1024,    // tie rounding up to the even neighbour
      ~uint64_t{0} - 2048, ~uint64_t{0} - 1024,
      ~uint64_t{0} - 1023,  // rounds up to 2^64: clamped
      ~uint64_t{0}};
  // Values fixed by IEEE round-to-nearest-even, independent of the
  // standard library.
  const auto canonical = [](uint64_t u) {
    StubEngine stub{{u}};
    return Canonical53(stub);
  };
  EXPECT_EQ(canonical(kTop), 0.5);
  EXPECT_EQ(canonical(kTop + 1024), 0.5);
  EXPECT_EQ(canonical(kTop + 3 * 1024), 0.5 + 0x1p-52);
  EXPECT_EQ(canonical(~uint64_t{0} - 1024), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical(~uint64_t{0} - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical(~uint64_t{0}), std::nextafter(1.0, 0.0));
  // A polar point with r2 == 1 exactly and y > 0: y = 1 - 2^-52 (the
  // clamped canonical) and x = k * 2^-53 with x^2 within rounding of
  // 2^-51. sqrt(-2 log r2 / r2) is then sqrt(-0.0) = -0.0, and the
  // normal must still be +0.0, as std's `ret * stddev + mean` makes it.
  constexpr uint64_t kUnitRadiusX = kTop + (uint64_t{189812532} << 10);
  const std::vector<uint64_t> unit_radius = {kUnitRadiusX, ~uint64_t{0}};
  {
    const double x = 2.0 * canonical(kUnitRadiusX) - 1.0;
    const double y = 2.0 * canonical(~uint64_t{0}) - 1.0;
    ASSERT_EQ(x * x + y * y, 1.0);
    StubEngine replica{unit_radius};
    const double z = StdNormal(replica);
    EXPECT_EQ(z, 0.0);
    EXPECT_FALSE(std::signbit(z));
  }
#ifdef __GLIBCXX__
  for (uint64_t u : edges) {
    StubEngine stub{{u}};
    const double reference = std::generate_canonical<double, 53>(stub);
    EXPECT_EQ(reference, canonical(u)) << "u = " << u;
  }
  {
    StubEngine reference{unit_radius};
    std::normal_distribution<double> fresh(0.0, 1.0);
    const double z = fresh(reference);
    EXPECT_EQ(z, 0.0);
    EXPECT_FALSE(std::signbit(z));
  }
  // Polar rejection: r2 == 0 (both canonicals 0.5), then r2 > 1 (both
  // near 1), then an accepted point (-0.5, 0.5).
  const std::vector<uint64_t> polar = {kTop, kTop, ~uint64_t{0}, ~uint64_t{0},
                                       kTop >> 1, kTop + (kTop >> 1)};
  StubEngine reference{polar};
  StubEngine replica{polar};
  std::normal_distribution<double> fresh(0.0, 1.0);
  EXPECT_EQ(fresh(reference), StdNormal(replica));
  EXPECT_EQ(replica.next, polar.size());
#else
  (void)edges;
#endif  // __GLIBCXX__
}

}  // namespace
}  // namespace sbrl
