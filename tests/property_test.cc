// Cross-cutting property tests: invariants that must hold across the
// public API surface for whole parameter grids, complementing the
// example-based suites.

#include <gtest/gtest.h>

#include <cmath>

#include "core/balancing_regularizer.h"
#include "core/independence_regularizer.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "stats/ipm.h"
#include "stats/metrics.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

// --- Sampling invariants across the paper's rho grid. -----------------

class RhoGridProperties : public ::testing::TestWithParam<double> {};

TEST_P(RhoGridProperties, SelectionLogWeightIsNonPositiveAndMonotone) {
  const double rho = GetParam();
  // log Pr <= 0 always (|rho| > 1), and a unit whose unstable values
  // align better with sign(rho)*ITE must have a higher weight.
  const double aligned =
      BiasedSelectionLogWeight(1.0, {rho > 0 ? 1.0 : -1.0}, rho);
  const double misaligned =
      BiasedSelectionLogWeight(1.0, {rho > 0 ? -1.0 : 1.0}, rho);
  EXPECT_LE(aligned, 1e-12);
  EXPECT_LE(misaligned, 1e-12);
  EXPECT_GT(aligned, misaligned);
}

TEST_P(RhoGridProperties, EnvironmentsValidateAndKeepInvariantOutcomeModel) {
  const double rho = GetParam();
  SyntheticDims dims;
  SyntheticModel model(dims, 1234);
  CausalDataset env = model.SampleEnvironment(400, rho, 42);
  ASSERT_TRUE(env.Validate().ok()) << "rho=" << rho;
  // P(Y | X) invariance: outcomes are a deterministic function of the
  // covariates given the shared model, so re-deriving the potential
  // outcomes from X must reproduce mu0/mu1 regardless of environment.
  // (Spot-check via the factual consistency y = mu_t.)
  for (int64_t i = 0; i < env.n(); ++i) {
    const double expected =
        env.t[static_cast<size_t>(i)] == 1 ? env.mu1(i, 0) : env.mu0(i, 0);
    ASSERT_EQ(env.y(i, 0), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, RhoGridProperties,
                         ::testing::Values(-3.0, -2.5, -1.5, -1.3, 1.3, 1.5,
                                           2.5, 3.0));

// --- IPM properties across dimensions. --------------------------------

class IpmProperties : public ::testing::TestWithParam<int> {};

TEST_P(IpmProperties, NonNegativeAndZeroOnIdenticalArms) {
  const int dim = GetParam();
  Rng rng(100 + dim);
  Matrix rep_half = rng.Randn(20, dim);
  // Duplicate every row into both arms: distributions identical.
  Matrix rep(40, dim);
  for (int64_t i = 0; i < 20; ++i) {
    for (int64_t c = 0; c < dim; ++c) {
      rep(i, c) = rep_half(i, c);
      rep(i + 20, c) = rep_half(i, c);
    }
  }
  std::vector<int> t(40, 0);
  for (int i = 20; i < 40; ++i) t[static_cast<size_t>(i)] = 1;
  Tape tape;
  Var rep_var = tape.Constant(rep);
  Var w = tape.Constant(Matrix::Ones(40, 1));
  const double loss =
      WeightedIpmLoss(rep_var, w, t).value().scalar();
  EXPECT_NEAR(loss, 0.0, 1e-9);

  // Shifting one arm makes it strictly positive.
  Matrix shifted = rep;
  for (int64_t i = 20; i < 40; ++i) shifted(i, 0) += 2.0;
  Tape tape2;
  Var rep2 = tape2.Constant(shifted);
  Var w2 = tape2.Constant(Matrix::Ones(40, 1));
  EXPECT_GT(WeightedIpmLoss(rep2, w2, t).value().scalar(), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Dims, IpmProperties, ::testing::Values(1, 3, 8));

// --- Decorrelation loss properties across budgets. ---------------------

class PairBudgetProperties : public ::testing::TestWithParam<int> {};

TEST_P(PairBudgetProperties, SubsampledLossIsUnbiasedToScale) {
  // The pair-budget estimator rescales to the full pair count: its
  // expectation should track the exact loss within a factor.
  const int budget = GetParam();
  Rng data_rng(55);
  Matrix z = data_rng.Randn(150, 8);
  Tape tape;
  Var w = tape.Constant(Matrix::Ones(150, 1));
  Rng exact_rng(56);
  const double exact =
      HsicRffDecorrelationLoss(z, w, 0, exact_rng).value().scalar();
  double sampled_sum = 0.0;
  const int rounds = 12;
  for (int i = 0; i < rounds; ++i) {
    Tape t2;
    Var w2 = t2.Constant(Matrix::Ones(150, 1));
    Rng sub_rng(57 + static_cast<uint64_t>(i));
    sampled_sum +=
        HsicRffDecorrelationLoss(z, w2, budget, sub_rng).value().scalar();
  }
  const double sampled_mean = sampled_sum / rounds;
  EXPECT_GT(sampled_mean, exact * 0.3);
  EXPECT_LT(sampled_mean, exact * 3.0);
}

INSTANTIATE_TEST_SUITE_P(Budgets, PairBudgetProperties,
                         ::testing::Values(4, 8, 16));

// --- Metric identities under transformations. --------------------------

TEST(MetricInvarianceTest, PeheInvariantUnderPermutation) {
  Rng rng(60);
  std::vector<double> hat(50), truth(50);
  for (int i = 0; i < 50; ++i) {
    hat[static_cast<size_t>(i)] = rng.Normal();
    truth[static_cast<size_t>(i)] = rng.Normal();
  }
  const double base = Pehe(hat, truth);
  auto perm = rng.Permutation(50);
  std::vector<double> hat_p(50), truth_p(50);
  for (int i = 0; i < 50; ++i) {
    hat_p[static_cast<size_t>(i)] = hat[static_cast<size_t>(perm[i])];
    truth_p[static_cast<size_t>(i)] = truth[static_cast<size_t>(perm[i])];
  }
  EXPECT_DOUBLE_EQ(Pehe(hat_p, truth_p), base);
}

TEST(MetricInvarianceTest, AteErrorInvariantUnderSharedShift) {
  std::vector<double> hat = {0.5, 1.5, -0.25};
  std::vector<double> truth = {1.0, 0.0, 0.5};
  const double base = AteError(hat, truth);
  for (auto& v : hat) v += 2.0;
  for (auto& v : truth) v += 2.0;
  EXPECT_NEAR(AteError(hat, truth), base, 1e-12);
}

TEST(MetricInvarianceTest, F1InvariantToProbabilityRescalingAboveThreshold) {
  // Sharpening probabilities without crossing 0.5 cannot change F1.
  std::vector<double> probs = {0.9, 0.6, 0.4, 0.1};
  std::vector<double> labels = {1, 0, 1, 0};
  const double base = F1Score(probs, labels);
  std::vector<double> sharp = {0.99, 0.51, 0.49, 0.01};
  EXPECT_DOUBLE_EQ(F1Score(sharp, labels), base);
}

TEST(MetricInvarianceTest, SlicedW1IsSymmetricAndTriangleLike) {
  Rng rng(61);
  Matrix a = rng.Randn(80, 3);
  Matrix b = rng.Randn(80, 3, 1.0, 1.0);
  Rng r1(62), r2(62);
  const double ab = SlicedWasserstein1(a, b, 16, r1);
  const double ba = SlicedWasserstein1(b, a, 16, r2);
  EXPECT_NEAR(ab, ba, 1e-9);  // same projections by seed, W1 symmetric
}

TEST(MetricInvarianceTest, MaxSlicedDominatesMeanSliced) {
  Rng rng(63);
  Matrix a = rng.Randn(100, 4);
  Matrix b = rng.Randn(100, 4, 0.5, 1.2);
  Rng r1(64), r2(64);
  const double mean_sliced = SlicedWasserstein1(a, b, 24, r1);
  const double max_sliced = MaxSlicedWasserstein1(a, b, 24, r2);
  EXPECT_GE(max_sliced, mean_sliced - 1e-9);
}

}  // namespace
}  // namespace sbrl
