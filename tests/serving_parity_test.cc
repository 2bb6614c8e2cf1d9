// Inference parity lockdown. The estimator and the serving model both
// predict through one tape-free InferenceNet, so comparing them with
// each other would prove nothing about that forward. Both are instead
// held BITWISE equal to an independent oracle: the fitted backbone's
// own tape forward (Backbone::Forward with training=false) followed by
// the literal sigmoid / de-standardization. For every one of the
// paper's nine methods, Train -> PredictPotentialOutcomes and
// Train -> ExportServingModel -> ServingModel::Load -> ScoreOutcomes
// must each match that oracle — across architectures (DeR-CFR's split
// stacks included), outcome types
// (binary probabilities and de-standardized continuous outcomes), and
// ISA backends (pinned baseline vs auto dispatch). RepresentationOf is
// held to the oracle's rep the same way.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "core/estimator.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

// Per-process, so the suite's ctest variants can run concurrently.
std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

// Small-but-real training setup: every layer type in play, a few dozen
// iterations — enough for non-trivial weights, fast enough for tier 1.
EstimatorConfig ParityConfig(const MethodSpec& spec) {
  EstimatorConfig config;
  config.network.rep_layers = 2;
  config.network.rep_width = 8;
  config.network.head_layers = 2;
  config.network.head_width = 8;
  config.train.iterations = 30;
  config.train.seed = 11;
  config.train.eval_every = 0;
  config.sbrl.hsic_pair_budget = 8;
  return WithMethod(config, spec);
}

struct ParityData {
  CausalDataset train;
  Matrix queries;
};

ParityData MakeParityData() {
  SyntheticDims dims;
  dims.m_i = 3;
  dims.m_c = 3;
  dims.m_a = 3;
  dims.m_v = 1;
  SyntheticModel model(dims, 401);
  ParityData data;
  data.train = model.SampleEnvironment(120, 2.5, 402);
  data.queries = model.SampleEnvironment(40, -2.5, 403).x;
  return data;
}

// The tape oracle's view of one prediction.
struct TapeOracle {
  Matrix outcomes;  ///< (n x 2) potential outcomes
  Matrix rep;       ///< balanced representation
};

// Records the fitted backbone's inference forward on a tape, pinned to
// the estimator's ISA choice, and maps the head outputs through the
// literal sigmoid / de-standardization.
TapeOracle RunTapeOracle(HteEstimator& estimator, const Matrix& x) {
  ScopedThreadIsa isa_scope(estimator.config().sbrl.isa);
  Tape tape;
  ParamBinder binder(&tape);
  const std::vector<int> t0(static_cast<size_t>(x.rows()), 0);
  Var ones = tape.Constant(Matrix::Ones(x.rows(), 1));
  BackboneForward fwd = estimator.fitted_backbone()->Forward(
      binder, x, t0, ones, /*training=*/false);
  const InferenceSpec& spec = estimator.inference_spec();
  TapeOracle oracle;
  oracle.outcomes = Matrix(x.rows(), 2);
  for (int64_t i = 0; i < x.rows(); ++i) {
    double y0 = fwd.y0.value()(i, 0);
    double y1 = fwd.y1.value()(i, 0);
    if (spec.binary_outcome) {
      y0 = 1.0 / (1.0 + std::exp(-y0));
      y1 = 1.0 / (1.0 + std::exp(-y1));
    } else {
      y0 = y0 * spec.y_std + spec.y_mean;
      y1 = y1 * spec.y_std + spec.y_mean;
    }
    oracle.outcomes(i, 0) = y0;
    oracle.outcomes(i, 1) = y1;
  }
  oracle.rep = fwd.rep.value();
  return oracle;
}

void ExpectBitwiseEqual(const Matrix& got, const Matrix& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " diverged at element " << i;
  }
}

StatusOr<serve::ServingModel> ExportAndLoad(HteEstimator& estimator,
                                            const std::string& tag) {
  const std::string path = TestPath("parity_" + tag + ".model");
  const Status exported =
      serve::ExportServingModel(estimator, /*detector=*/nullptr, path);
  if (!exported.ok()) return exported;
  StatusOr<serve::ServingModel> model = serve::ServingModel::Load(path);
  std::remove(path.c_str());
  return model;
}

// Trains `config`, exports through the on-disk format, reloads, and
// requires the estimator's predictions and the serving scores on
// `queries` to each be bitwise equal to the tape oracle.
void ExpectMatchesOracle(const EstimatorConfig& config,
                         const CausalDataset& train, const Matrix& queries,
                         const std::string& tag) {
  StatusOr<HteEstimator> estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  ASSERT_TRUE(estimator->Fit(train).ok()) << tag;
  StatusOr<serve::ServingModel> model = ExportAndLoad(*estimator, tag);
  ASSERT_TRUE(model.ok()) << tag << ": " << model.status().ToString();

  const TapeOracle oracle = RunTapeOracle(*estimator, queries);
  ExpectBitwiseEqual(estimator->PredictPotentialOutcomes(queries),
                     oracle.outcomes, tag + " predict");
  ExpectBitwiseEqual(model->ScoreOutcomes(queries), oracle.outcomes,
                     tag + " serve");
}

TEST(ServingParityTest, AllNineMethodsMatchTapeOracleBitwise) {
  const ParityData data = MakeParityData();
  for (const MethodSpec& spec : AllNineMethods()) {
    ExpectMatchesOracle(ParityConfig(spec), data.train, data.queries,
                        spec.name());
  }
}

TEST(ServingParityTest, ContinuousOutcomeDestandardizationMatches) {
  // Continuous outcomes exercise the y_mean / y_std meta fields: the
  // estimator de-standardizes predictions, and serving must replay the
  // same affine transform on the same raw network outputs.
  ParityData data = MakeParityData();
  Rng rng(404);
  data.train.binary_outcome = false;
  const Matrix noise = rng.Randn(data.train.n(), 1);
  for (int64_t i = 0; i < data.train.n(); ++i) {
    const double base = data.train.t[static_cast<size_t>(i)] == 1
                            ? data.train.mu1(i, 0)
                            : data.train.mu0(i, 0);
    data.train.y(i, 0) = 3.0 + 2.0 * base + 0.1 * noise(i, 0);
  }
  MethodSpec spec{BackboneKind::kTarnet, FrameworkKind::kSbrl};
  ExpectMatchesOracle(ParityConfig(spec), data.train, data.queries,
                            "continuous");
}

TEST(ServingParityTest, IsaPinnedBaselineStaysBitwiseAndNearAuto) {
  // Pinning SBRL_ISA=baseline must keep both the estimator and serving
  // bitwise equal to the tape oracle (all three re-dispatch together),
  // and the baseline vs auto-dispatched serving scores may differ only
  // by vectorized summation order — tolerance-bounded, not bitwise.
  const ParityData data = MakeParityData();
  MethodSpec spec{BackboneKind::kCfr, FrameworkKind::kSbrlHap};
  StatusOr<HteEstimator> estimator =
      HteEstimator::Create(ParityConfig(spec));
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(data.train).ok());
  StatusOr<serve::ServingModel> model = ExportAndLoad(*estimator, "isa");
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const Matrix served_auto = model->ScoreOutcomes(data.queries);

  // Restore the caller's pin afterwards: the suite also runs as an
  // SBRL_ISA=baseline ctest variant.
  const char* previous = std::getenv("SBRL_ISA");
  const std::string saved = previous != nullptr ? previous : "";
  setenv("SBRL_ISA", "baseline", /*overwrite=*/1);
  const TapeOracle oracle = RunTapeOracle(*estimator, data.queries);
  const Matrix predicted_base =
      estimator->PredictPotentialOutcomes(data.queries);
  const Matrix served_base = model->ScoreOutcomes(data.queries);
  if (previous != nullptr) {
    setenv("SBRL_ISA", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("SBRL_ISA");
  }

  ExpectBitwiseEqual(predicted_base, oracle.outcomes, "baseline predict");
  ExpectBitwiseEqual(served_base, oracle.outcomes, "baseline serve");
  for (int64_t i = 0; i < served_auto.size(); ++i) {
    EXPECT_NEAR(served_base[i], served_auto[i], 1e-7)
        << "baseline vs auto drifted too far at element " << i;
  }
}

TEST(ServingParityTest, RepresentationOfMatchesTapeOracle) {
  // RepresentationOf is the input of both heads (and the paper's Fig. 5
  // decorrelation surface): the rep stack(s) and DeR-CFR's [C, A]
  // concat must reproduce the tape forward's rep bit for bit.
  const ParityData data = MakeParityData();
  for (const BackboneKind backbone :
       {BackboneKind::kTarnet, BackboneKind::kCfr, BackboneKind::kDerCfr}) {
    const std::string tag = BackboneName(backbone);
    StatusOr<HteEstimator> estimator = HteEstimator::Create(
        ParityConfig(MethodSpec{backbone, FrameworkKind::kVanilla}));
    ASSERT_TRUE(estimator.ok()) << tag;
    ASSERT_TRUE(estimator->Fit(data.train).ok()) << tag;
    const TapeOracle oracle = RunTapeOracle(*estimator, data.queries);
    ExpectBitwiseEqual(estimator->RepresentationOf(data.queries), oracle.rep,
                       tag + " rep");
  }
}

}  // namespace
}  // namespace sbrl
