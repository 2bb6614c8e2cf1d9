#include <gtest/gtest.h>

#include <cmath>

#include "stats/correlation.h"
#include "stats/hsic.h"
#include "stats/ipm.h"
#include "stats/metrics.h"
#include "stats/rff.h"
#include "stats/weighted.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

TEST(RffTest, FeatureRangeIsBounded) {
  Rng rng(3);
  RffProjection proj = SampleRff(rng, 2, 8);
  Matrix x = rng.Randn(50, 2);
  Matrix u = ApplyRff(proj, x);
  EXPECT_EQ(u.rows(), 50);
  EXPECT_EQ(u.cols(), 8);
  const double bound = std::sqrt(2.0) + 1e-12;
  EXPECT_LE(u.MaxValue(), bound);
  EXPECT_GE(u.MinValue(), -bound);
}

TEST(RffTest, RffKernelApproximatesRbfUnitBandwidth) {
  // E[z(x)^T z(y)] / k -> exp(-|x-y|^2 / 2) as k grows.
  Rng rng(4);
  RffProjection proj = SampleRff(rng, 1, 4000);
  Matrix pts = Matrix::FromRows({{0.0}, {0.7}});
  Matrix z = ApplyRff(proj, pts);
  double dot = 0.0;
  for (int64_t c = 0; c < z.cols(); ++c) dot += z(0, c) * z(1, c);
  dot /= static_cast<double>(z.cols());
  EXPECT_NEAR(dot, std::exp(-0.5 * 0.49), 0.05);
}

TEST(WeightedStatsTest, NormalizeWeightsSumsToOne) {
  Matrix w = Matrix::ColumnVector({1, 2, 3, 4});
  Matrix n = NormalizeWeights(w);
  EXPECT_NEAR(n.Sum(), 1.0, 1e-12);
  EXPECT_NEAR(n(3, 0), 0.4, 1e-12);
}

TEST(WeightedStatsTest, NegativeWeightDies) {
  Matrix w = Matrix::ColumnVector({1, -1});
  EXPECT_DEATH(NormalizeWeights(w), "negative sample weight");
}

TEST(WeightedStatsTest, AllZeroWeightsDie) {
  Matrix w = Matrix::Zeros(3, 1);
  EXPECT_DEATH(NormalizeWeights(w), "all sample weights are zero");
}

TEST(WeightedStatsTest, WeightedMeanMatchesHandComputation) {
  Matrix col = Matrix::ColumnVector({1.0, 3.0});
  Matrix w = Matrix::ColumnVector({3.0, 1.0});
  EXPECT_NEAR(WeightedMean(col, w), 1.5, 1e-12);
}

TEST(WeightedStatsTest, UniformWeightsReduceToUnweighted) {
  Rng rng(5);
  Matrix x = rng.Randn(40, 3);
  Matrix w = Matrix::Ones(40, 1);
  Matrix wm = WeightedColMeans(x, w);
  Matrix um = ColMean(x);
  EXPECT_TRUE(AllClose(wm, um, 1e-12));
}

TEST(WeightedStatsTest, WeightedCovarianceOfIndependentColumnsNearZero) {
  Rng rng(6);
  Matrix a = rng.Randn(5000, 1);
  Matrix b = rng.Randn(5000, 1);
  Matrix w = rng.Rand(5000, 1, 0.5, 1.5);
  EXPECT_NEAR(WeightedCovariance(a, b, w), 0.0, 0.05);
}

TEST(WeightedStatsTest, CrossCovarianceMatchesScalarCovariances) {
  Rng rng(7);
  Matrix u = rng.Randn(100, 2);
  Matrix v = rng.Randn(100, 3);
  Matrix w = rng.Rand(100, 1, 0.1, 2.0);
  Matrix c = WeightedCrossCovariance(u, v, w);
  ASSERT_EQ(c.rows(), 2);
  ASSERT_EQ(c.cols(), 3);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(c(i, j), WeightedCovariance(u.Col(i), v.Col(j), w), 1e-10);
    }
  }
}

TEST(HsicRffTest, IndependentVsDependentSeparation) {
  Rng rng(10);
  Matrix a = rng.Randn(500, 1);
  Matrix indep = rng.Randn(500, 1);
  Matrix dep(500, 1);
  for (int64_t i = 0; i < 500; ++i) dep(i, 0) = std::sin(2.0 * a(i, 0));
  // Unit weights: the plain (unweighted) HSIC-RFF of paper Eq. 7.
  const Matrix unit = Matrix::Ones(500, 1);
  Rng rng_stat(11);
  const double h_indep = WeightedHsicRff(a, indep, unit, 5, rng_stat);
  const double h_dep = WeightedHsicRff(a, dep, unit, 5, rng_stat);
  EXPECT_GT(h_dep, 3.0 * h_indep);
}

TEST(HsicRffTest, WeightsCanRemoveDependence) {
  // Construct a sample where dependence between a and b is induced by a
  // selection mechanism; upweighting the under-selected region should
  // reduce the weighted HSIC-RFF below the uniform-weight value.
  Rng rng(12);
  const int64_t n = 800;
  Matrix a(n, 1), b(n, 1), w_fix(n, 1);
  int64_t count = 0;
  while (count < n) {
    const double x = rng.Normal();
    const double y = rng.Normal();
    // Biased acceptance: keep (x, y) agreeing in sign more often.
    const double accept = (x * y > 0) ? 0.9 : 0.1;
    if (rng.Uniform() < accept) {
      a(count, 0) = x;
      b(count, 0) = y;
      // Inverse-probability weights exactly undo the selection.
      w_fix(count, 0) = 1.0 / accept;
      ++count;
    }
  }
  Matrix uniform = Matrix::Ones(n, 1);
  Rng rng_stat(13);
  const double h_biased = WeightedHsicRff(a, b, uniform, 5, rng_stat);
  const double h_fixed = WeightedHsicRff(a, b, w_fix, 5, rng_stat);
  EXPECT_LT(h_fixed, 0.5 * h_biased);
}

TEST(HsicRffTest, PairwiseSumAndSubsampleScale) {
  Rng rng(14);
  Matrix x = rng.Randn(200, 6);
  Matrix w = Matrix::Ones(200, 1);
  Rng rng_a(15), rng_b(15);
  const double full = PairwiseWeightedHsicRff(x, w, rng_a, 0);
  EXPECT_GE(full, 0.0);
  // A subsample estimate should be on the same order as the full sum.
  const double sub = PairwiseWeightedHsicRff(x, w, rng_b, 8);
  EXPECT_GT(sub, 0.0);
  EXPECT_LT(sub, full * 10.0);
}

TEST(IpmTest, LinearMmdZeroForIdenticalSamples) {
  Rng rng(16);
  Matrix x = rng.Randn(50, 4);
  EXPECT_NEAR(LinearMmd2(x, x), 0.0, 1e-18);
}

TEST(IpmTest, LinearMmdDetectsMeanShift) {
  Rng rng(17);
  Matrix a = rng.Randn(2000, 3, 0.0, 1.0);
  Matrix b = rng.Randn(2000, 3, 1.0, 1.0);
  EXPECT_NEAR(LinearMmd2(a, b), 3.0, 0.3);  // |(1,1,1)|^2 = 3
}

TEST(IpmTest, WeightedLinearMmdCanUndoMeanShiftViaWeights) {
  // Group b is a mixture; reweighting its components can match a's mean.
  Matrix a = Matrix::FromRows({{0.0}, {0.0}});
  Matrix b = Matrix::FromRows({{-2.0}, {2.0}, {2.0}});
  Matrix wa = Matrix::Ones(2, 1);
  Matrix wb_uniform = Matrix::Ones(3, 1);
  // Uniform weights: mean(b) = 2/3, mismatch.
  EXPECT_GT(WeightedLinearMmd2(a, wa, b, wb_uniform), 0.1);
  // Weights 2:1:1 give mean zero.
  Matrix wb_fixed = Matrix::ColumnVector({2.0, 1.0, 1.0});
  EXPECT_NEAR(WeightedLinearMmd2(a, wa, b, wb_fixed), 0.0, 1e-18);
}

TEST(IpmTest, SlicedWassersteinZeroForSameSampleMonotoneInShift) {
  Rng rng(20);
  Matrix x = rng.Randn(200, 3);
  Rng proj_rng(21);
  EXPECT_NEAR(SlicedWasserstein1(x, x, 16, proj_rng), 0.0, 1e-12);
  Matrix y1 = x;
  Matrix y2 = x;
  for (int64_t i = 0; i < x.rows(); ++i) {
    y1(i, 0) += 1.0;
    y2(i, 0) += 3.0;
  }
  Rng r1(22), r2(22);
  EXPECT_LT(SlicedWasserstein1(x, y1, 16, r1),
            SlicedWasserstein1(x, y2, 16, r2));
}

TEST(MetricsTest, PeheZeroForPerfectPrediction) {
  std::vector<double> ite = {1.0, -0.5, 2.0};
  EXPECT_DOUBLE_EQ(Pehe(ite, ite), 0.0);
}

TEST(MetricsTest, PeheMatchesHandComputation) {
  std::vector<double> hat = {1.0, 2.0};
  std::vector<double> truth = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(Pehe(hat, truth), std::sqrt(2.5));
}

TEST(MetricsTest, AteErrorIsBiasOfMeans) {
  std::vector<double> hat = {1.0, 1.0, 1.0};
  std::vector<double> truth = {0.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(AteError(hat, truth), 0.0);  // both means are 1
  std::vector<double> truth2 = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(AteError(hat, truth2), 1.0);
}

TEST(MetricsTest, ConfusionCountsAndF1) {
  std::vector<double> probs = {0.9, 0.8, 0.4, 0.2, 0.7};
  std::vector<double> labels = {1, 0, 1, 0, 1};
  ConfusionCounts c = Confusion(probs, labels);
  EXPECT_EQ(c.tp, 2);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_DOUBLE_EQ(F1Score(probs, labels), 2.0 * 2 / (2.0 * 2 + 1 + 1));
  EXPECT_DOUBLE_EQ(Accuracy(probs, labels), 0.6);
}

TEST(MetricsTest, F1UndefinedReturnsZero) {
  std::vector<double> probs = {0.1, 0.2};
  std::vector<double> labels = {0, 0};
  EXPECT_DOUBLE_EQ(F1Score(probs, labels), 0.0);
}

TEST(MetricsTest, EnvAggregateMatchesPaperDefinition) {
  std::vector<double> values = {0.4, 0.6};
  EnvAggregate agg = AggregateOverEnvironments(values);
  EXPECT_DOUBLE_EQ(agg.mean, 0.5);
  EXPECT_NEAR(agg.variance, 0.01, 1e-12);  // 1/2 [(0.1)^2 + (0.1)^2]
  EXPECT_NEAR(agg.std_dev, 0.1, 1e-12);
}

TEST(CorrelationTest, PearsonIdentityOnIndependentColumns) {
  Rng rng(23);
  Matrix x = rng.Randn(5000, 3);
  Matrix corr = PearsonCorrelationMatrix(x);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(corr(i, i), 1.0);
    for (int64_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_NEAR(corr(i, j), 0.0, 0.05);
      }
    }
  }
}

TEST(CorrelationTest, PearsonDetectsLinearRelation) {
  Rng rng(24);
  Matrix x(100, 2);
  for (int64_t i = 0; i < 100; ++i) {
    const double v = rng.Normal();
    x(i, 0) = v;
    x(i, 1) = -2.0 * v;
  }
  Matrix corr = PearsonCorrelationMatrix(x);
  EXPECT_NEAR(corr(0, 1), -1.0, 1e-9);
}

TEST(CorrelationTest, ZeroVarianceColumnYieldsZeroCorrelation) {
  Rng rng(25);
  Matrix x(50, 2);
  for (int64_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = 4.2;
  }
  Matrix corr = PearsonCorrelationMatrix(x);
  EXPECT_DOUBLE_EQ(corr(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(corr(1, 1), 1.0);
}

TEST(CorrelationTest, HsicMatrixSymmetricZeroDiagonal) {
  Rng rng(26);
  Matrix x = rng.Randn(150, 4);
  Matrix w = Matrix::Ones(150, 1);
  Rng stat_rng(27);
  Matrix h = PairwiseHsicRffMatrix(x, w, 5, stat_rng);
  ASSERT_EQ(h.rows(), 4);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(h(i, i), 0.0);
    for (int64_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(h(i, j), h(j, i));
  }
}

TEST(CorrelationTest, HsicMatrixSubsamplesDims) {
  Rng rng(28);
  Matrix x = rng.Randn(100, 10);
  Matrix w = Matrix::Ones(100, 1);
  Rng stat_rng(29);
  Matrix h = PairwiseHsicRffMatrix(x, w, 5, stat_rng, 4);
  EXPECT_EQ(h.rows(), 4);
  EXPECT_EQ(h.cols(), 4);
}

TEST(CorrelationTest, MeanOffDiagonal) {
  Matrix m = Matrix::FromRows({{0, 2, 4}, {2, 0, 6}, {4, 6, 0}});
  EXPECT_DOUBLE_EQ(MeanOffDiagonal(m), 4.0);
}

// Property sweep: HSIC-RFF is non-negative and approximately symmetric
// in distribution across sample sizes and feature counts.
class HsicRffPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HsicRffPropertySweep, NonNegativeAndFiniteAcrossConfigs) {
  const auto [n, k] = GetParam();
  Rng rng(200 + n + k);
  Matrix a = rng.Randn(n, 1);
  Matrix b = rng.Randn(n, 1);
  Rng stat_rng(300 + n * k);
  const double h = WeightedHsicRff(a, b, Matrix::Ones(n, 1), k, stat_rng);
  EXPECT_GE(h, 0.0);
  EXPECT_TRUE(std::isfinite(h));
}

INSTANTIATE_TEST_SUITE_P(Configs, HsicRffPropertySweep,
                         ::testing::Combine(::testing::Values(20, 100, 400),
                                            ::testing::Values(2, 5, 10)));

}  // namespace
}  // namespace sbrl
