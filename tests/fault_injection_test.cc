// Deterministic fault-injection harness (common/fault.h) and the
// divergence-recovery policy it exists to exercise: registry and spec
// semantics, NaN-gradient rollback with learning-rate backoff, typed
// failure when recovery is off or its budget is exhausted, and the
// NaN-aware early-stopping path.

#include "common/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/trainer.h"
#include "data/causal_dataset.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------

class FaultRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmFaults(); }
};

TEST_F(FaultRegistryTest, DisarmedSitesAreFree) {
  EXPECT_FALSE(FaultsArmed());
  EXPECT_FALSE(FaultPoint("test/site"));
  // Disarmed evaluations must not even touch the registry counters.
  EXPECT_EQ(FaultHitCount("test/site"), 0);
}

TEST_F(FaultRegistryTest, FiresExactlyOnceAtTheArmedHit) {
  ArmFault("test/site", /*hit=*/2);
  EXPECT_TRUE(FaultsArmed());
  EXPECT_FALSE(FaultPoint("test/site"));  // hit 0
  EXPECT_FALSE(FaultPoint("test/site"));  // hit 1
  EXPECT_TRUE(FaultPoint("test/site"));   // hit 2 <- fires
  EXPECT_FALSE(FaultPoint("test/site"));  // hit 3
  EXPECT_EQ(FaultHitCount("test/site"), 4);
  EXPECT_EQ(FaultFireCount("test/site"), 1);
}

TEST_F(FaultRegistryTest, PersistentFaultKeepsFiring) {
  ArmFault("test/site", /*hit=*/1, /*persistent=*/true);
  EXPECT_FALSE(FaultPoint("test/site"));  // hit 0
  EXPECT_TRUE(FaultPoint("test/site"));   // hit 1
  EXPECT_TRUE(FaultPoint("test/site"));   // hit 2
  EXPECT_EQ(FaultFireCount("test/site"), 2);
}

TEST_F(FaultRegistryTest, SitesAreIndependent) {
  ArmFault("test/a", /*hit=*/0);
  EXPECT_FALSE(FaultPoint("test/b"));
  EXPECT_TRUE(FaultPoint("test/a"));
  EXPECT_EQ(FaultHitCount("test/b"), 1);
  EXPECT_EQ(FaultFireCount("test/b"), 0);
}

TEST_F(FaultRegistryTest, DisarmClearsEverything) {
  ArmFault("test/site", /*hit=*/0);
  EXPECT_TRUE(FaultPoint("test/site"));
  DisarmFaults();
  EXPECT_FALSE(FaultsArmed());
  EXPECT_FALSE(FaultPoint("test/site"));
  EXPECT_EQ(FaultHitCount("test/site"), 0);
  EXPECT_EQ(FaultFireCount("test/site"), 0);
}

TEST_F(FaultRegistryTest, SpecParsesSingleAndPersistentEntries) {
  ASSERT_TRUE(ArmFaultsFromSpec("test/a:3, test/b:0+").ok());
  EXPECT_TRUE(FaultsArmed());
  EXPECT_TRUE(FaultPoint("test/b"));
  EXPECT_TRUE(FaultPoint("test/b"));
  EXPECT_FALSE(FaultPoint("test/a"));
  EXPECT_EQ(FaultFireCount("test/b"), 2);
}

TEST_F(FaultRegistryTest, SpecRejectsMalformedEntries) {
  EXPECT_EQ(ArmFaultsFromSpec("nohit").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFaultsFromSpec("site:").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFaultsFromSpec(":3").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFaultsFromSpec("site:-1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFaultsFromSpec("site:x").code(),
            StatusCode::kInvalidArgument);
  // Overflowing hit counts are rejected, not silently saturated to
  // LLONG_MAX (the old strtoll behavior).
  EXPECT_EQ(ArmFaultsFromSpec("site:9223372036854775808").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFaultsFromSpec("site:99999999999999999999+").code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Trainer-level fault drills.
// ---------------------------------------------------------------------------

constexpr int64_t kSamples = 120;
constexpr int64_t kDim = 6;
constexpr int64_t kIterations = 6;

CausalDataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  CausalDataset data;
  data.x = rng.Randn(kSamples, kDim);
  data.t.resize(static_cast<size_t>(kSamples));
  data.y = Matrix(kSamples, 1);
  data.mu0 = Matrix(kSamples, 1);
  data.mu1 = Matrix(kSamples, 1);
  data.binary_outcome = false;
  for (int64_t i = 0; i < kSamples; ++i) {
    const bool treated = i < 2 ? (i == 0) : rng.Bernoulli(0.5);
    data.t[static_cast<size_t>(i)] = treated ? 1 : 0;
    const double base = data.x(i, 0) - 0.5 * data.x(i, 1);
    data.mu0(i, 0) = base;
    data.mu1(i, 0) = base + 1.0;
    data.y(i, 0) = (treated ? data.mu1(i, 0) : data.mu0(i, 0)) +
                   rng.Normal(0.0, 0.1);
  }
  return data;
}

EstimatorConfig DrillConfig(FrameworkKind framework) {
  EstimatorConfig config;
  config.backbone = BackboneKind::kCfr;
  config.framework = framework;
  config.network.rep_layers = 1;
  config.network.rep_width = 8;
  config.network.head_layers = 1;
  config.network.head_width = 4;
  config.train.iterations = kIterations;
  config.train.eval_every = 1;
  config.train.seed = 11;
  config.sbrl.hsic_pair_budget = 8;
  return config;
}

struct DrillResult {
  Status status;
  TrainDiagnostics diag;
  std::vector<double> final_params;
};

DrillResult RunDrill(const EstimatorConfig& config,
                     const CausalDataset& train,
                     const CausalDataset* valid = nullptr) {
  Rng rng(config.train.seed);
  std::unique_ptr<Backbone> backbone =
      CreateBackbone(config, train.dim(), rng);
  SbrlTrainer trainer(config, backbone.get(), /*binary_outcome=*/false);
  DrillResult result;
  Matrix weights;
  result.status = trainer.Train(train, valid, &result.diag, &weights);
  std::vector<Param*> params;
  backbone->CollectParams(&params);
  for (const Param* p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      result.final_params.push_back(p->value[i]);
    }
  }
  return result;
}

class FaultDrillTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmFaults(); }
};

TEST_F(FaultDrillTest, NanGradientTriggersRollbackAndRunRecovers) {
  const CausalDataset data = MakeDataset(31);
  EstimatorConfig config = DrillConfig(FrameworkKind::kVanilla);

  const DrillResult clean = RunDrill(config, data);
  ASSERT_TRUE(clean.status.ok());

  // One NaN gradient at iteration 2 (transient: the replay is clean).
  ArmFault("trainer/nan_grad", /*hit=*/2);
  const DrillResult faulted = RunDrill(config, data);
  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_EQ(faulted.diag.first_bad_iteration, 2);
  EXPECT_EQ(faulted.diag.recovery_rollbacks, 1);
  // The run completed with finite results...
  ASSERT_EQ(faulted.diag.train_loss.size(),
            static_cast<size_t>(kIterations));
  for (double loss : faulted.diag.train_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  for (double p : faulted.final_params) EXPECT_TRUE(std::isfinite(p));
  // ...and the learning-rate backoff visibly changed the trajectory
  // after the rollback point relative to the clean run.
  ASSERT_EQ(faulted.final_params.size(), clean.final_params.size());
  int64_t diffs = 0;
  for (size_t i = 0; i < clean.final_params.size(); ++i) {
    if (faulted.final_params[i] != clean.final_params[i]) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST_F(FaultDrillTest, PoisonedLossRecoversUnderSbrlHap) {
  // Same drill through the loss-scalar guardrail, with the full
  // SBRL-HAP weight step in the loop.
  const CausalDataset data = MakeDataset(32);
  EstimatorConfig config = DrillConfig(FrameworkKind::kSbrlHap);
  ArmFault("trainer/poison_loss", /*hit=*/1);
  const DrillResult result = RunDrill(config, data);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.diag.first_bad_iteration, 1);
  EXPECT_EQ(result.diag.recovery_rollbacks, 1);
  for (double loss : result.diag.train_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST_F(FaultDrillTest, RecoveryOffFailsFastWithInternal) {
  const CausalDataset data = MakeDataset(33);
  EstimatorConfig config = DrillConfig(FrameworkKind::kVanilla);
  config.sbrl.recovery_max_retries = 0;
  ArmFault("trainer/nan_grad", /*hit=*/2);
  const DrillResult result = RunDrill(config, data);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("recovery is off"),
            std::string::npos)
      << result.status.ToString();
  EXPECT_EQ(result.diag.first_bad_iteration, 2);
}

TEST_F(FaultDrillTest, PersistentFaultExhaustsRetryBudget) {
  const CausalDataset data = MakeDataset(34);
  EstimatorConfig config = DrillConfig(FrameworkKind::kVanilla);
  config.sbrl.recovery_max_retries = 2;
  // The fault keeps firing on every replay, so no amount of rollback
  // and backoff can get past it.
  ArmFault("trainer/nan_grad", /*hit=*/2, /*persistent=*/true);
  const DrillResult result = RunDrill(config, data);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("budget exhausted"),
            std::string::npos)
      << result.status.ToString();
  EXPECT_EQ(result.diag.recovery_rollbacks, 2);
  EXPECT_EQ(result.diag.first_bad_iteration, 2);
}

TEST_F(FaultDrillTest, NanValidationLossCannotFreezeEarlyStopping) {
  // The NaN-aware early-stopping satellite: a validation loss that goes
  // NaN counts as a non-improving evaluation (consuming patience) and
  // can never become the tracked best. Before the fix, NaN compared
  // false everywhere and silently froze best-model tracking while the
  // run kept training to the iteration cap.
  const CausalDataset train = MakeDataset(36);
  const CausalDataset valid = MakeDataset(37);
  EstimatorConfig config = DrillConfig(FrameworkKind::kVanilla);
  config.train.patience = 2;
  ArmFault("trainer/poison_valid", /*hit=*/0, /*persistent=*/true);
  const DrillResult result = RunDrill(config, train, &valid);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // Every validation loss was NaN -> never an improvement, no best
  // iterate, and patience stopped the run after exactly 2 evaluations.
  ASSERT_EQ(result.diag.valid_loss.size(), 2u);
  for (double v : result.diag.valid_loss) {
    EXPECT_TRUE(std::isnan(v));
  }
  EXPECT_EQ(result.diag.best_iteration, -1);
  // A NaN on the validation set is not a training-health event.
  EXPECT_EQ(result.diag.first_bad_iteration, -1);
  EXPECT_EQ(result.diag.recovery_rollbacks, 0);
}

}  // namespace
}  // namespace sbrl
