// End-to-end integration tests exercising the full SBRL-HAP pipeline on
// the paper's synthetic OOD construction: biased training environment,
// shifted test environments, the alternating trainer, and the
// decorrelation mechanism that makes stable estimation work.

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "reference_hsic.h"
#include "stats/correlation.h"
#include "stats/metrics.h"
#include "tensor/linalg.h"

namespace sbrl {
namespace {

EstimatorConfig IntegrationConfig(FrameworkKind framework) {
  EstimatorConfig config;
  config.backbone = BackboneKind::kCfr;
  config.framework = framework;
  config.network.rep_layers = 2;
  config.network.rep_width = 24;
  config.network.head_layers = 2;
  config.network.head_width = 12;
  config.train.iterations = 120;
  config.train.seed = 5;
  config.train.eval_every = 0;
  config.sbrl.gamma1 = 10.0;
  config.sbrl.gamma2 = 0.01;
  config.sbrl.gamma3 = 0.01;
  config.sbrl.lr_w = 0.1;
  config.sbrl.hsic_pair_budget = 16;
  return config;
}

TEST(IntegrationTest, SbrlWeightsReduceRepresentationDependence) {
  // The core mechanism (paper Fig. 5): the learned weights must lower
  // the weighted pairwise HSIC-RFF of the balanced representation
  // relative to uniform weights on the same representation.
  SyntheticDims dims;
  SyntheticModel model(dims, 201);
  CausalDataset train = model.SampleEnvironment(600, 2.5, 202);

  auto estimator = HteEstimator::Create(IntegrationConfig(
      FrameworkKind::kSbrlHap));
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());

  Matrix rep = estimator->RepresentationOf(train.x);
  Matrix uniform = Matrix::Ones(train.n(), 1);
  Rng stat_a(203), stat_b(203);  // identical feature draws
  const double h_uniform =
      reference::PairwiseWeightedHsicRff(rep, uniform, stat_a, 32);
  const double h_learned = reference::PairwiseWeightedHsicRff(
      rep, estimator->sample_weights(), stat_b, 32);
  EXPECT_LT(h_learned, h_uniform);
}

TEST(IntegrationTest, SbrlImprovesFarOodEstimation) {
  // Scaled-down paper Fig. 3 check: on the far OOD environment
  // (rho = -3), the SBRL-wrapped CFR must beat vanilla CFR. This is
  // the paper's headline claim; the seeds and sizes here were chosen
  // to keep the check fast yet stable.
  SyntheticDims dims;
  dims.m_i = dims.m_c = dims.m_a = 16;
  dims.m_v = 2;
  SyntheticModel model(dims, 72);
  CausalDataset pool = model.SampleEnvironment(2000, 2.5, 73);
  Rng split_rng(74);
  TrainValid tv = SplitTrainValid(pool, 0.75, split_rng);
  CausalDataset ood = model.SampleEnvironment(500, -3.0, 75);

  auto fit_and_score = [&](FrameworkKind framework) {
    EstimatorConfig config = IntegrationConfig(framework);
    config.network.rep_width = 32;
    config.network.head_width = 16;
    config.train.iterations = 300;
    config.train.eval_every = 25;
    config.train.seed = 77;
    auto estimator = HteEstimator::Create(config);
    SBRL_CHECK(estimator.ok());
    SBRL_CHECK(estimator->Fit(tv.train, &tv.valid).ok());
    return Pehe(estimator->PredictIte(ood.x), ood.TrueIte());
  };
  const double pehe_vanilla = fit_and_score(FrameworkKind::kVanilla);
  const double pehe_sbrl = fit_and_score(FrameworkKind::kSbrl);
  EXPECT_LT(pehe_sbrl, pehe_vanilla);
}

TEST(IntegrationTest, AllNineMethodsCompleteOnOneReplication) {
  // Smoke-level Table I: every (backbone, framework) pair must train
  // and produce finite metrics on ID and OOD environments.
  SyntheticDims dims;
  SyntheticModel model(dims, 205);
  CausalDataset pool = model.SampleEnvironment(400, 2.5, 206);
  Rng split_rng(207);
  TrainValid tv = SplitTrainValid(pool, 0.75, split_rng);
  CausalDataset test_id = model.SampleEnvironment(150, 2.5, 208);
  CausalDataset test_ood = model.SampleEnvironment(150, -2.5, 209);

  for (const MethodSpec& spec : AllNineMethods()) {
    SCOPED_TRACE(spec.name());
    EstimatorConfig config =
        WithMethod(IntegrationConfig(spec.framework), spec);
    config.train.iterations = 40;
    auto results =
        TrainAndEvaluate(config, tv.train, &tv.valid, {&test_id, &test_ood});
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    for (const EvalResult& r : *results) {
      EXPECT_TRUE(std::isfinite(r.pehe));
      EXPECT_TRUE(std::isfinite(r.ate_error));
      EXPECT_GT(r.pehe, 0.0);
      EXPECT_LT(r.pehe, 2.0);  // bounded for probability-difference ITEs
    }
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  // Same seeds end-to-end => identical weights and predictions.
  SyntheticDims dims;
  SyntheticModel model(dims, 212);
  CausalDataset train = model.SampleEnvironment(250, 2.5, 213);
  CausalDataset test = model.SampleEnvironment(100, -1.5, 214);
  auto run = [&]() {
    EstimatorConfig config = IntegrationConfig(FrameworkKind::kSbrlHap);
    config.train.iterations = 40;
    auto estimator = HteEstimator::Create(config);
    SBRL_CHECK(estimator.ok());
    SBRL_CHECK(estimator->Fit(train).ok());
    return estimator->PredictIte(test.x);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(IntegrationTest, EstimatorWorksWithoutValidationSet) {
  SyntheticDims dims;
  SyntheticModel model(dims, 215);
  CausalDataset train = model.SampleEnvironment(250, 2.5, 216);
  EstimatorConfig config = IntegrationConfig(FrameworkKind::kSbrlHap);
  config.train.iterations = 30;
  config.train.eval_every = 10;  // eval cadence without a valid set
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  EXPECT_TRUE(estimator->diagnostics().valid_loss.empty());
  EXPECT_FALSE(estimator->diagnostics().train_loss.empty());
}

}  // namespace
}  // namespace sbrl
