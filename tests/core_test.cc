#include <gtest/gtest.h>

#include <cmath>

#include "core/balancing_regularizer.h"
#include "core/backbone.h"
#include "core/config.h"
#include "core/dercfr.h"
#include "core/estimator.h"
#include "core/hap.h"
#include "core/independence_regularizer.h"
#include "core/sample_weights.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "stats/hsic.h"
#include "stats/ipm.h"
#include "tensor/linalg.h"

namespace sbrl {
namespace {

EstimatorConfig SmallConfig() {
  EstimatorConfig config;
  config.network.rep_layers = 2;
  config.network.rep_width = 24;
  config.network.head_layers = 2;
  config.network.head_width = 16;
  config.train.iterations = 120;
  config.train.lr = 2e-3;
  config.train.eval_every = 0;  // no early stopping in unit tests
  config.sbrl.hsic_pair_budget = 16;
  config.sbrl.weight_update_every = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(ConfigTest, DefaultsValidate) {
  EXPECT_TRUE(EstimatorConfig().Validate().ok());
}

TEST(ConfigTest, RejectsBadSettings) {
  EstimatorConfig config;
  config.train.lr = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = EstimatorConfig();
  config.network.rep_layers = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = EstimatorConfig();
  config.sbrl.gamma1 = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = EstimatorConfig();
  config.train.lr_decay_rate = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = EstimatorConfig();
  config.sbrl.weight_update_every = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, MethodNames) {
  EXPECT_EQ(MethodName(BackboneKind::kTarnet, FrameworkKind::kVanilla),
            "TARNet");
  EXPECT_EQ(MethodName(BackboneKind::kCfr, FrameworkKind::kSbrl),
            "CFR+SBRL");
  EXPECT_EQ(MethodName(BackboneKind::kDerCfr, FrameworkKind::kSbrlHap),
            "DeR-CFR+SBRL-HAP");
}

// ---------------------------------------------------------------------------
// Balancing Regularizer.
// ---------------------------------------------------------------------------

TEST(BalancingRegularizerTest, ZeroWhenArmsIdentical) {
  Tape tape;
  Matrix rep_vals = Matrix::FromRows({{1, 2}, {1, 2}, {3, 4}, {3, 4}});
  Var rep = tape.Constant(rep_vals);
  Var w = tape.Constant(Matrix::Ones(4, 1));
  // Arms {0, 2} and {1, 3} have identical distributions.
  Var loss = WeightedIpmLoss(rep, w, {1, 0, 1, 0});
  EXPECT_NEAR(loss.value().scalar(), 0.0, 1e-12);
}

TEST(BalancingRegularizerTest, DetectsArmMeanGap) {
  Tape tape;
  Matrix rep_vals = Matrix::FromRows({{0.0}, {0.0}, {2.0}, {2.0}});
  Var rep = tape.Constant(rep_vals);
  Var w = tape.Constant(Matrix::Ones(4, 1));
  Var loss = WeightedIpmLoss(rep, w, {0, 0, 1, 1});
  EXPECT_NEAR(loss.value().scalar(), 4.0, 1e-12);
}

TEST(BalancingRegularizerTest, WeightsCanCloseTheGap) {
  // Control has units at 0 and 4; treated at 2. Upweighting nothing
  // gives gap 0 only if weights rebalance: w = (1,1) -> mean 2 == 2.
  Tape tape;
  Matrix rep_vals = Matrix::FromRows({{0.0}, {4.0}, {2.0}});
  Var rep = tape.Constant(rep_vals);
  Var w_bad = tape.Constant(Matrix::ColumnVector({3.0, 1.0, 1.0}));
  Var loss_bad = WeightedIpmLoss(rep, w_bad, {0, 0, 1});
  EXPECT_GT(loss_bad.value().scalar(), 0.5);
  Var w_good = tape.Constant(Matrix::ColumnVector({1.0, 1.0, 1.0}));
  Var loss_good = WeightedIpmLoss(rep, w_good, {0, 0, 1});
  EXPECT_NEAR(loss_good.value().scalar(), 0.0, 1e-12);
}

TEST(BalancingRegularizerTest, GradientFlowsToWeights) {
  Tape tape;
  Var rep = tape.Constant(Rng(1).Randn(10, 3));
  Var w = tape.Leaf(Matrix::Ones(10, 1));
  std::vector<int> t = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  Var loss = WeightedIpmLoss(rep, w, t);
  tape.Backward(loss);
  EXPECT_TRUE(tape.has_grad(w.id()));
  EXPECT_GT(w.grad().Norm(), 0.0);
}

TEST(BalancingRegularizerTest, SingleArmDies) {
  Tape tape;
  Var rep = tape.Constant(Matrix::Ones(3, 2));
  Var w = tape.Constant(Matrix::Ones(3, 1));
  EXPECT_DEATH(WeightedIpmLoss(rep, w, {1, 1, 1}),
               "both treatment arms");
}

// ---------------------------------------------------------------------------
// Independence Regularizer.
// ---------------------------------------------------------------------------

TEST(IndependenceRegularizerTest, LowerForIndependentFeatures) {
  Rng data_rng(3);
  const int64_t n = 400;
  Matrix z_indep = data_rng.Randn(n, 4);
  Matrix z_dep(n, 4);
  for (int64_t i = 0; i < n; ++i) {
    const double v = data_rng.Normal();
    z_dep(i, 0) = v;
    z_dep(i, 1) = v * v;
    z_dep(i, 2) = std::sin(3.0 * v);
    z_dep(i, 3) = -v;
  }
  Tape tape;
  Var w = tape.Constant(Matrix::Ones(n, 1));
  Rng rff_a(4), rff_b(4);
  const double loss_indep =
      HsicRffDecorrelationLoss(z_indep, w, 0, rff_a).value().scalar();
  const double loss_dep =
      HsicRffDecorrelationLoss(z_dep, w, 0, rff_b).value().scalar();
  EXPECT_GT(loss_dep, 3.0 * loss_indep);
}

TEST(IndependenceRegularizerTest, GradientDrivesWeightsTowardIndependence) {
  // One-step sanity: the gradient w.r.t. w is nonzero for dependent
  // features and a gradient step reduces the loss.
  Rng data_rng(5);
  const int64_t n = 200;
  Matrix z(n, 2);
  for (int64_t i = 0; i < n; ++i) {
    const double v = data_rng.Normal();
    z(i, 0) = v;
    z(i, 1) = v + 0.1 * data_rng.Normal();
  }
  Matrix w_val = Matrix::Ones(n, 1);
  double before = 0.0, after = 0.0;
  {
    Tape tape;
    Var w = tape.Leaf(w_val);
    Rng rff(6);
    Var loss = HsicRffDecorrelationLoss(z, w, 0, rff);
    before = loss.value().scalar();
    tape.Backward(loss);
    const Matrix& g = w.grad();
    for (int64_t i = 0; i < n; ++i) {
      w_val(i, 0) = std::max(0.05, w_val(i, 0) - 20.0 * g(i, 0));
    }
  }
  {
    Tape tape;
    Var w = tape.Leaf(w_val);
    Rng rff(6);  // same feature draw for a fair comparison
    after = HsicRffDecorrelationLoss(z, w, 0, rff).value().scalar();
  }
  EXPECT_LT(after, before);
}

TEST(IndependenceRegularizerTest, SingleColumnIsZero) {
  Tape tape;
  Var w = tape.Leaf(Matrix::Ones(50, 1));
  Rng rff(7);
  Matrix z = Rng(8).Randn(50, 1);
  Var loss = HsicRffDecorrelationLoss(z, w, 0, rff);
  EXPECT_EQ(loss.value().scalar(), 0.0);
}

// ---------------------------------------------------------------------------
// Sample weights.
// ---------------------------------------------------------------------------

TEST(SampleWeightsTest, InitializedToOneAndProjected) {
  SampleWeights w(5, 0.1);
  EXPECT_TRUE(AllClose(w.raw(), Matrix::Ones(5, 1), 0.0));
  w.param().value(2, 0) = -3.0;
  w.Project();
  EXPECT_DOUBLE_EQ(w.raw()(2, 0), 0.1);
}

TEST(SampleWeightsTest, NormalizedToMeanOne) {
  SampleWeights w(4, 0.0);
  w.param().value = Matrix::ColumnVector({1, 2, 3, 2});
  Matrix n = w.NormalizedToMeanOne();
  EXPECT_NEAR(n.Mean(), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// HAP weight loss assembly.
// ---------------------------------------------------------------------------

TEST(HapTest, VanillaFrameworkDies) {
  Tape tape;
  Var w = tape.Leaf(Matrix::Ones(4, 1));
  WeightLossInputs inputs;
  inputs.z_p = Matrix::Ones(4, 2);
  inputs.z_r = Matrix::Ones(4, 2);
  inputs.t = {0, 1, 0, 1};
  Rng rng(9);
  EXPECT_DEATH(BuildWeightLoss(w, inputs, SbrlConfig(),
                               FrameworkKind::kVanilla, 0.0, rng),
               "vanilla");
}

TEST(HapTest, AnchorAtUniformWeightsIsZeroLossContribution) {
  // With z matrices of constant columns (no dependence, no imbalance),
  // L_w at w = 1 is just R_w = 0.
  Tape tape;
  Var w = tape.Leaf(Matrix::Ones(6, 1));
  WeightLossInputs inputs;
  inputs.z_p = Matrix::Ones(6, 2);   // zero-variance features
  inputs.z_r = Matrix::Ones(6, 2);
  inputs.t = {0, 1, 0, 1, 0, 1};
  Rng rng(10);
  SbrlConfig config;
  config.hsic_pair_budget = 0;
  Var loss = BuildWeightLoss(w, inputs, config, FrameworkKind::kSbrlHap,
                             1.0, rng);
  EXPECT_NEAR(loss.value().scalar(), 0.0, 1e-10);
}

TEST(HapTest, HapIncludesMoreTermsThanSbrl) {
  // With dependent z_o layers, the HAP loss must exceed the SBRL loss
  // under identical RFF draws.
  Rng data_rng(11);
  const int64_t n = 100;
  Matrix dep(n, 3);
  for (int64_t i = 0; i < n; ++i) {
    const double v = data_rng.Normal();
    dep(i, 0) = v;
    dep(i, 1) = v * v;
    dep(i, 2) = 2.0 * v;
  }
  WeightLossInputs inputs;
  inputs.z_p = dep;
  inputs.z_r = dep;
  inputs.z_o = {dep, dep};
  for (int64_t i = 0; i < n; ++i) inputs.t.push_back(i % 2 == 0 ? 1 : 0);
  SbrlConfig config;
  config.gamma1 = config.gamma2 = config.gamma3 = 1.0;
  config.hsic_pair_budget = 0;
  double sbrl_loss, hap_loss;
  {
    Tape tape;
    Var w = tape.Leaf(Matrix::Ones(n, 1));
    Rng rng(12);
    sbrl_loss = BuildWeightLoss(w, inputs, config, FrameworkKind::kSbrl,
                                1.0, rng)
                    .value()
                    .scalar();
  }
  {
    Tape tape;
    Var w = tape.Leaf(Matrix::Ones(n, 1));
    Rng rng(12);
    hap_loss = BuildWeightLoss(w, inputs, config, FrameworkKind::kSbrlHap,
                               1.0, rng)
                   .value()
                   .scalar();
  }
  EXPECT_GT(hap_loss, sbrl_loss);
}

// ---------------------------------------------------------------------------
// Backbone forward contracts.
// ---------------------------------------------------------------------------

class BackboneForwardContract
    : public ::testing::TestWithParam<BackboneKind> {};

TEST_P(BackboneForwardContract, ShapesAndHierarchy) {
  EstimatorConfig config = SmallConfig();
  config.backbone = GetParam();
  Rng rng(13);
  auto backbone = CreateBackbone(config, 6, rng);
  const int64_t n = 30;
  Matrix x = Rng(14).Randn(n, 6);
  std::vector<int> t(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t[static_cast<size_t>(i)] = i % 2;
  if (auto* dercfr = dynamic_cast<DerCfrBackbone*>(backbone.get())) {
    dercfr->SetOutcomes(Matrix::Zeros(n, 1));
  }
  Tape tape;
  ParamBinder binder(&tape);
  Var w = tape.Constant(Matrix::Ones(n, 1));
  BackboneForward fwd = backbone->Forward(binder, x, t, w, true);
  EXPECT_EQ(fwd.y0.rows(), n);
  EXPECT_EQ(fwd.y0.cols(), 1);
  EXPECT_EQ(fwd.y1.rows(), n);
  EXPECT_EQ(fwd.rep.rows(), n);
  EXPECT_EQ(fwd.z_p.rows(), n);
  EXPECT_EQ(fwd.z_p.cols(), config.network.head_width);
  EXPECT_FALSE(fwd.z_other.empty());
  EXPECT_TRUE(fwd.aux_loss.value().is_scalar());
  // Every parameter must be reachable from a loss through the tape.
  Var probe = ops::Add(ops::Add(ops::SumAll(fwd.y0), ops::SumAll(fwd.y1)),
                       fwd.aux_loss);
  tape.Backward(probe);
  binder.FlushGrads();
  std::vector<Param*> params;
  backbone->CollectParams(&params);
  int with_grad = 0;
  for (Param* p : params) {
    if (p->grad.Norm() > 0.0) ++with_grad;
  }
  EXPECT_GT(with_grad, static_cast<int>(params.size()) / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneForwardContract,
                         ::testing::Values(BackboneKind::kTarnet,
                                           BackboneKind::kCfr,
                                           BackboneKind::kDerCfr));

TEST(BackboneTest, TarnetHasZeroAuxLossCfrDoesNot) {
  EstimatorConfig config = SmallConfig();
  Rng rng(15);
  auto tarnet = CreateBackbone(
      [&] { auto c = config; c.backbone = BackboneKind::kTarnet; return c; }(),
      4, rng);
  Rng rng2(15);
  auto cfr = CreateBackbone(
      [&] { auto c = config; c.backbone = BackboneKind::kCfr; return c; }(),
      4, rng2);
  Matrix x = Rng(16).Randn(20, 4);
  std::vector<int> t(20);
  for (int i = 0; i < 20; ++i) t[static_cast<size_t>(i)] = i % 2;
  Tape tape;
  ParamBinder binder(&tape);
  Var w = tape.Constant(Matrix::Ones(20, 1));
  EXPECT_EQ(tarnet->Forward(binder, x, t, w, true).aux_loss.value().scalar(),
            0.0);
  Tape tape2;
  ParamBinder binder2(&tape2);
  Var w2 = tape2.Constant(Matrix::Ones(20, 1));
  EXPECT_GT(cfr->Forward(binder2, x, t, w2, true).aux_loss.value().scalar(),
            0.0);
}

// ---------------------------------------------------------------------------
// Estimator end-to-end.
// ---------------------------------------------------------------------------

TEST(EstimatorTest, CreateRejectsInvalidConfig) {
  EstimatorConfig config;
  config.train.iterations = 0;
  auto result = HteEstimator::Create(config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EstimatorTest, FitRejectsInvalidDataset) {
  auto estimator = HteEstimator::Create(SmallConfig());
  ASSERT_TRUE(estimator.ok());
  CausalDataset bad;
  EXPECT_FALSE(estimator->Fit(bad).ok());
}

TEST(EstimatorTest, FitRejectsMismatchedValidation) {
  auto estimator = HteEstimator::Create(SmallConfig());
  ASSERT_TRUE(estimator.ok());
  SyntheticModel model(SyntheticDims{}, 17);
  CausalDataset train = model.SampleUnbiased(100, 1);
  CausalDataset valid = train;
  valid.x = Matrix(100, 5);  // wrong dimension
  EXPECT_FALSE(estimator->Fit(train, &valid).ok());
}

TEST(EstimatorTest, PredictBeforeFitDies) {
  auto estimator = HteEstimator::Create(SmallConfig());
  ASSERT_TRUE(estimator.ok());
  EXPECT_DEATH(estimator->PredictIte(Matrix::Ones(2, 4)), "Fit");
}

TEST(EstimatorTest, RecoversEffectOnLinearBinaryTask) {
  // Easy task: treated outcome is (almost) always 1, control almost
  // always 0 for half the units. A fitted CFR should achieve PEHE well
  // below the trivial zero-predictor.
  SyntheticModel model(SyntheticDims{}, 18);
  CausalDataset train = model.SampleUnbiased(800, 3);
  CausalDataset test = model.SampleUnbiased(400, 4);
  EstimatorConfig config = SmallConfig();
  config.backbone = BackboneKind::kCfr;
  config.framework = FrameworkKind::kVanilla;
  config.train.iterations = 250;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  const auto ite_hat = estimator->PredictIte(test.x);
  const auto ite_true = test.TrueIte();
  std::vector<double> zeros(ite_true.size(), 0.0);
  EXPECT_LT(Pehe(ite_hat, ite_true), Pehe(zeros, ite_true));
}

TEST(EstimatorTest, TrainingLossDecreases) {
  SyntheticModel model(SyntheticDims{}, 19);
  CausalDataset train = model.SampleUnbiased(500, 5);
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kVanilla;
  config.train.eval_every = 20;
  config.train.patience = 0;
  config.train.iterations = 200;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  const auto& history = estimator->diagnostics().train_loss;
  ASSERT_GE(history.size(), 2u);
  EXPECT_LT(history.back(), history.front());
}

TEST(EstimatorTest, ContinuousOutcomeStandardizationRoundTrips) {
  // Continuous outcomes far from zero: predictions must come back in
  // the original scale.
  Rng rng(20);
  const int64_t n = 300;
  CausalDataset data;
  data.x = rng.Randn(n, 3);
  data.t.resize(static_cast<size_t>(n));
  data.y = Matrix(n, 1);
  data.mu0 = Matrix(n, 1);
  data.mu1 = Matrix(n, 1);
  data.binary_outcome = false;
  for (int64_t i = 0; i < n; ++i) {
    data.t[static_cast<size_t>(i)] = rng.Bernoulli(0.5) ? 1 : 0;
    data.mu0(i, 0) = 100.0 + data.x(i, 0);
    data.mu1(i, 0) = 104.0 + data.x(i, 0);
    data.y(i, 0) =
        (data.t[static_cast<size_t>(i)] == 1 ? data.mu1 : data.mu0)(i, 0) +
        rng.Normal(0.0, 0.1);
  }
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kVanilla;
  config.train.iterations = 300;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(data).ok());
  Matrix outcomes = estimator->PredictPotentialOutcomes(data.x);
  EXPECT_NEAR(outcomes.Col(0).Mean(), 100.0, 2.0);
  EXPECT_NEAR(estimator->PredictAte(data.x), 4.0, 1.5);
}

TEST(EstimatorTest, SbrlLearnsNonUniformWeights) {
  SyntheticModel model(SyntheticDims{}, 21);
  CausalDataset train = model.SampleEnvironment(400, 2.5, 6);
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kSbrl;
  config.train.iterations = 60;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  const Matrix& w = estimator->sample_weights();
  EXPECT_EQ(w.rows(), 400);
  EXPECT_GT(StdDev(w), 1e-4);          // moved away from uniform
  EXPECT_GE(w.MinValue(), config.sbrl.weight_floor - 1e-12);
}

TEST(EstimatorTest, VanillaKeepsUniformWeights) {
  SyntheticModel model(SyntheticDims{}, 22);
  CausalDataset train = model.SampleUnbiased(200, 7);
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kVanilla;
  config.train.iterations = 30;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  EXPECT_TRUE(AllClose(estimator->sample_weights(),
                       Matrix::Ones(200, 1), 0.0));
}

TEST(EstimatorTest, EarlyStoppingRecordsBestIteration) {
  SyntheticModel model(SyntheticDims{}, 23);
  CausalDataset train = model.SampleUnbiased(400, 8);
  CausalDataset valid = model.SampleUnbiased(200, 9);
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kVanilla;
  config.train.iterations = 200;
  config.train.eval_every = 20;
  config.train.patience = 3;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train, &valid).ok());
  EXPECT_GE(estimator->diagnostics().best_iteration, 0);
  EXPECT_FALSE(estimator->diagnostics().valid_loss.empty());
}

TEST(EstimatorTest, RepresentationShapeMatchesConfig) {
  SyntheticModel model(SyntheticDims{}, 24);
  CausalDataset train = model.SampleUnbiased(150, 10);
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kVanilla;
  config.train.iterations = 10;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  Matrix rep = estimator->RepresentationOf(train.x);
  EXPECT_EQ(rep.rows(), 150);
  EXPECT_EQ(rep.cols(), config.network.rep_width);
}

TEST(EstimatorTest, DerCfrEndToEnd) {
  SyntheticModel model(SyntheticDims{}, 25);
  CausalDataset train = model.SampleUnbiased(400, 11);
  EstimatorConfig config = SmallConfig();
  config.backbone = BackboneKind::kDerCfr;
  config.framework = FrameworkKind::kSbrlHap;
  config.train.iterations = 60;
  auto estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());
  auto ite = estimator->PredictIte(train.x);
  EXPECT_EQ(ite.size(), 400u);
  for (double v : ite) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);  // probability differences
  }
}

// ---------------------------------------------------------------------------
// Experiment harness.
// ---------------------------------------------------------------------------

TEST(ExperimentTest, NineMethodsEnumerated) {
  auto methods = AllNineMethods();
  ASSERT_EQ(methods.size(), 9u);
  EXPECT_EQ(methods[0].name(), "TARNet");
  EXPECT_EQ(methods[8].name(), "DeR-CFR+SBRL-HAP");
}

TEST(ExperimentTest, TrainAndEvaluateProducesPerTestResults) {
  SyntheticModel model(SyntheticDims{}, 26);
  CausalDataset train = model.SampleUnbiased(300, 12);
  CausalDataset test_a = model.SampleUnbiased(100, 13);
  CausalDataset test_b = model.SampleUnbiased(100, 14);
  EstimatorConfig config = SmallConfig();
  config.framework = FrameworkKind::kVanilla;
  config.train.iterations = 40;
  auto results = TrainAndEvaluate(config, train, nullptr,
                                  {&test_a, &test_b});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  for (const EvalResult& r : *results) {
    EXPECT_TRUE(std::isfinite(r.pehe));
    EXPECT_GE(r.f1_factual, 0.0);
    EXPECT_LE(r.f1_factual, 1.0);
  }
}

TEST(ExperimentTest, AggregateReplications) {
  std::vector<EvalResult> runs(2);
  runs[0].pehe = 0.4;
  runs[1].pehe = 0.6;
  runs[0].ate_error = 0.1;
  runs[1].ate_error = 0.3;
  ReplicationStats stats = AggregateReplications(runs);
  EXPECT_DOUBLE_EQ(stats.pehe.mean, 0.5);
  EXPECT_NEAR(stats.pehe.std_dev, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(stats.ate_error.mean, 0.2);
}

}  // namespace
}  // namespace sbrl
