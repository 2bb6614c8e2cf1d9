// Precision-tier lockdown: the f32 serving tier must stay inside
// DOCUMENTED error budgets relative to the f64 reference tier, per
// kernel and end to end, and the tier knob must not reach the streamed
// sharded passes (always f64). The budget constants below are the
// contract — docs/ARCHITECTURE.md ("Precision tiers") quotes them, and
// a change here is a semver-visible change to the tier.
//
// Registered three times by CMakeLists: plain, _threads2
// (SBRL_NUM_THREADS=2, proving every f32 path is bitwise invariant to
// the worker count), and _isa_baseline (SBRL_ISA=baseline, proving the
// budgets hold on the portable kernel table too, not just the wide
// ones).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/precision.h"
#include "common/simd.h"
#include "core/estimator.h"
#include "core/sharded_trainer.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"
#include "stats/sharded.h"
#include "tensor/linalg.h"
#include "tensor/linalg_f32.h"
#include "tensor/matrix_f32.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

// ---------------------------------------------------------------------
// The tier's error budgets (absolute, on randn-scale data).
// ---------------------------------------------------------------------

// One f64 -> f32 narrowing of a randn-scale value: half-ulp at
// magnitude ~8 (f32 eps 1.19e-7), rounded up.
constexpr double kNarrowBudget = 1e-6;

// f32 matmul with k <= 256 randn-scale terms, f32 accumulators:
// products are O(1), partial sums O(sqrt(k)) ~ 16, so the accumulated
// rounding stays well under 256 * eps * 16 ~ 5e-4.
constexpr double kMatmulBudget = 5e-4;

// f32 ELU sweep: expf's 4-ulp bound plus the exp(x)-1-vs-expm1
// substitution (absolute <= 1 ulp of 1 near zero) on values in (-1, 8].
constexpr double kEluBudget = 2e-6;

// End-to-end serving scores (probabilities / de-standardized
// outcomes): the whole f32 forward vs the f64 forward, all nine
// methods.
constexpr double kServingScoreBudget = 5e-3;

// PEHE / ATE drift between the tiers on the Table I smoke grid: both
// metrics average the same bounded per-row score differences.
constexpr double kMetricDriftBudget = 5e-3;

/// Pins SBRL_PRECISION for the lifetime of the object (same idiom as
/// the benches): ServingModel::Load resolves the tier from the
/// environment, so tests force each tier explicitly.
class ScopedPrecisionEnv {
 public:
  explicit ScopedPrecisionEnv(const char* value) {
    const char* old = std::getenv("SBRL_PRECISION");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("SBRL_PRECISION", value, 1);
  }
  ~ScopedPrecisionEnv() {
    if (had_old_) {
      ::setenv("SBRL_PRECISION", old_.c_str(), 1);
    } else {
      ::unsetenv("SBRL_PRECISION");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

// ---------------------------------------------------------------------
// Per-kernel budgets.
// ---------------------------------------------------------------------

TEST(PrecisionKernelTest, MatmulF32StaysInsideBudget) {
  Rng rng(501);
  // Odd sizes on purpose: the kernel's tail lanes are in play.
  const Matrix a = rng.Randn(37, 53);
  const Matrix b = rng.Randn(53, 19);
  const MatrixF32 a32 = MatrixF32::FromF64(a);
  const MatrixF32 b32 = MatrixF32::FromF64(b);
  const Matrix ref = Matmul(a, b);

  EXPECT_LT(MaxAbsDiff(ref, MatmulF32(a32, b32).ToF64()), kMatmulBudget);
}

TEST(PrecisionKernelTest, NarrowWidenRoundTripIsOneRounding) {
  Rng rng(502);
  const Matrix a = rng.Randn(17, 29);
  const Matrix round_tripped = MatrixF32::FromF64(a).ToF64();
  EXPECT_LT(MaxAbsDiff(a, round_tripped), kNarrowBudget);
  // Widening the narrowed value back is exact: every f32 is an f64.
  const MatrixF32 narrowed = MatrixF32::FromF64(round_tripped);
  EXPECT_EQ(MaxAbsDiff(round_tripped, narrowed.ToF64()), 0.0);
}

TEST(PrecisionKernelTest, EluSweepF32StaysInsideBudget) {
  Rng rng(504);
  const int64_t n = 4097;  // one element past a sweep block boundary
  Matrix x = rng.Randn(1, n);
  x[0] = 0.0;  // the exp(x)-1 substitution's worst neighborhood
  x[1] = -1e-6;
  x[2] = 1e-6;
  MatrixF32 swept = MatrixF32::FromF64(x);
  EluF32InPlace(swept.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(static_cast<float>(x[i]));
    const double want = v > 0.0 ? v : std::expm1(v);
    EXPECT_NEAR(static_cast<double>(swept[i]), want, kEluBudget) << i;
  }
}

TEST(PrecisionKernelTest, EluSweepF32RowBiasEqualsSeparateBiasPass) {
  // 700 rows of 13 straddle several sweep blocks mid-row.
  Rng rng(505);
  const int64_t rows = 700, width = 13;
  const MatrixF32 x = MatrixF32::FromF64(rng.Randn(rows, width));
  const MatrixF32 bias = MatrixF32::FromF64(rng.Randn(1, width));
  MatrixF32 fused = x;
  EluF32InPlace(fused.data(), rows * width, bias.data(), width);
  MatrixF32 separate = x;
  for (int64_t i = 0; i < rows * width; ++i) separate[i] += bias[i % width];
  EluF32InPlace(separate.data(), rows * width);
  for (int64_t i = 0; i < rows * width; ++i) {
    ASSERT_EQ(fused[i], separate[i]) << i;
  }
}

// ---------------------------------------------------------------------
// The streamed sharded passes are f64 only: SBRL_PRECISION must not
// reach them.
// ---------------------------------------------------------------------

struct StreamRun {
  ColumnMoments moments;
  double hsic = 0.0;
  std::vector<Matrix> params;
  double ate = 0.0;
};

/// Every streamed pass over one synthetic stream, under `env`.
StreamRun RunStreamedPasses(const char* env) {
  ScopedPrecisionEnv pin(env);
  SyntheticModel model(SyntheticDims{}, 601);
  SyntheticBlockReader reader(&model, /*total_rows=*/900, /*rho=*/1.5,
                              /*env_seed=*/602, /*chunk_rows=*/128);
  ShardedOptions opts;
  opts.shard_rows = 200;
  opts.workers = 2;
  StreamRun run;
  StatusOr<ColumnMoments> moments = ShardedColumnMoments(reader, opts);
  EXPECT_TRUE(moments.ok()) << moments.status().ToString();
  if (moments.ok()) run.moments = *moments;

  EXPECT_TRUE(reader.Reset().ok());
  StatusOr<double> hsic =
      ShardedHsicRff(reader, 0, kOutcomeColumn, 16, 603, opts);
  EXPECT_TRUE(hsic.ok()) << hsic.status().ToString();
  if (hsic.ok()) run.hsic = *hsic;

  ShardedTrainerConfig config;
  config.network.rep_layers = 1;
  config.network.rep_width = 8;
  config.network.head_layers = 1;
  config.network.head_width = 4;
  config.iterations = 2;
  config.seed = 604;
  config.sharding = opts;
  ShardedTrainer trainer(config, reader.dim());
  const Status trained = trainer.Train(reader);
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  trainer.CollectParamValues(&run.params);
  StatusOr<double> ate = trainer.EstimateAte(reader);
  EXPECT_TRUE(ate.ok()) << ate.status().ToString();
  if (ate.ok()) run.ate = *ate;
  return run;
}

TEST(PrecisionTierTest, EnvDoesNotReachStreamedPasses) {
  const StreamRun f64 = RunStreamedPasses("f64");
  const StreamRun f32 = RunStreamedPasses("f32");

  // Bitwise, not approximate: serving is the only f32 tier.
  EXPECT_EQ(f64.moments.rows, f32.moments.rows);
  ASSERT_TRUE(f64.moments.sum.same_shape(f32.moments.sum));
  for (int64_t j = 0; j < f64.moments.sum.cols(); ++j) {
    EXPECT_EQ(f64.moments.sum(0, j), f32.moments.sum(0, j)) << j;
    EXPECT_EQ(f64.moments.sum_sq(0, j), f32.moments.sum_sq(0, j)) << j;
  }
  EXPECT_EQ(f64.hsic, f32.hsic);
  ASSERT_EQ(f64.params.size(), f32.params.size());
  for (size_t p = 0; p < f64.params.size(); ++p) {
    ASSERT_TRUE(f64.params[p].same_shape(f32.params[p])) << p;
    for (int64_t i = 0; i < f64.params[p].size(); ++i) {
      EXPECT_EQ(f64.params[p][i], f32.params[p][i])
          << "param " << p << " element " << i;
    }
  }
  EXPECT_EQ(f64.ate, f32.ate);
}

// ---------------------------------------------------------------------
// End to end: serving and eval metrics.
// ---------------------------------------------------------------------

// Per-process, so the suite's ctest variants can run concurrently.
std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

EstimatorConfig SmallConfig(const MethodSpec& spec, uint64_t seed) {
  EstimatorConfig config;
  config.network.rep_layers = 2;
  config.network.rep_width = 8;
  config.network.head_layers = 2;
  config.network.head_width = 8;
  config.train.iterations = 30;
  config.train.seed = seed;
  config.train.eval_every = 0;
  config.sbrl.weight_update_every = 2;
  config.sbrl.hsic_pair_budget = 8;
  return WithMethod(config, spec);
}

TEST(PrecisionServingTest, AllNineMethodsScoreInsideBudget) {
  SyntheticDims dims;
  dims.m_i = 3;
  dims.m_c = 3;
  dims.m_a = 3;
  dims.m_v = 1;
  SyntheticModel model(dims, 701);
  const CausalDataset train = model.SampleEnvironment(120, 2.5, 702);
  const Matrix queries = model.SampleEnvironment(40, -2.5, 703).x;

  for (const MethodSpec& spec : AllNineMethods()) {
    StatusOr<HteEstimator> estimator =
        HteEstimator::Create(SmallConfig(spec, 704));
    ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
    ASSERT_TRUE(estimator->Fit(train).ok()) << spec.name();

    const std::string path = TestPath("precision_" + spec.name() + ".model");
    ASSERT_TRUE(serve::ExportServingModel(*estimator, /*detector=*/nullptr,
                                          path, /*include_f32=*/true)
                    .ok())
        << spec.name();
    StatusOr<serve::ServingModel> m64 = [&] {
      ScopedPrecisionEnv pin("f64");
      return serve::ServingModel::Load(path);
    }();
    StatusOr<serve::ServingModel> m32 = [&] {
      ScopedPrecisionEnv pin("f32");
      return serve::ServingModel::Load(path);
    }();
    std::remove(path.c_str());
    ASSERT_TRUE(m64.ok()) << m64.status().ToString();
    ASSERT_TRUE(m32.ok()) << m32.status().ToString();
    ASSERT_EQ(m64->precision(), Precision::kF64);
    ASSERT_EQ(m32->precision(), Precision::kF32);

    // f64 tier: bitwise the estimator's predictions (the pre-existing
    // serving contract, unchanged by the f32 section riding along).
    const Matrix predicted = estimator->PredictPotentialOutcomes(queries);
    const Matrix served64 = m64->ScoreOutcomes(queries);
    for (int64_t i = 0; i < predicted.size(); ++i) {
      ASSERT_EQ(served64[i], predicted[i]) << spec.name() << " element " << i;
    }
    // f32 tier: inside the documented budget of the f64 scores.
    const Matrix served32 = m32->ScoreOutcomes(queries);
    EXPECT_LT(MaxAbsDiff(served64, served32), kServingScoreBudget)
        << spec.name();
  }
}

TEST(PrecisionServingTest, PeheAndAteDriftBoundedOnSmokeGrid) {
  // Table I's experiment shape at smoke scale: train the flagship on
  // rho = +2.5, evaluate PEHE / ATE over the paper's rho grid with the
  // f64 and f32 serving tiers, and bound the metric drift.
  SyntheticDims dims;
  SyntheticModel model(dims, 801);
  const CausalDataset train = model.SampleEnvironment(150, 2.5, 802);
  MethodSpec spec{BackboneKind::kCfr, FrameworkKind::kSbrlHap};
  StatusOr<HteEstimator> estimator =
      HteEstimator::Create(SmallConfig(spec, 803));
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());

  const std::string path = TestPath("precision_grid.model");
  ASSERT_TRUE(serve::ExportServingModel(*estimator, /*detector=*/nullptr,
                                        path, /*include_f32=*/true)
                  .ok());
  StatusOr<serve::ServingModel> m64 = [&] {
    ScopedPrecisionEnv pin("f64");
    return serve::ServingModel::Load(path);
  }();
  StatusOr<serve::ServingModel> m32 = [&] {
    ScopedPrecisionEnv pin("f32");
    return serve::ServingModel::Load(path);
  }();
  std::remove(path.c_str());
  ASSERT_TRUE(m64.ok() && m32.ok());

  const std::vector<double> rho_grid = {-3.0, -1.5, 1.5, 3.0};
  for (size_t r = 0; r < rho_grid.size(); ++r) {
    const CausalDataset test = model.SampleEnvironment(
        100, rho_grid[r], 810 + static_cast<uint64_t>(r));
    const Matrix s64 = m64->ScoreOutcomes(test.x);
    const Matrix s32 = m32->ScoreOutcomes(test.x);
    double pehe64 = 0.0, pehe32 = 0.0, ate64 = 0.0, ate32 = 0.0;
    for (int64_t i = 0; i < test.n(); ++i) {
      const double tau = test.mu1(i, 0) - test.mu0(i, 0);
      const double ite64 = s64(i, 1) - s64(i, 0);
      const double ite32 = s32(i, 1) - s32(i, 0);
      pehe64 += (ite64 - tau) * (ite64 - tau);
      pehe32 += (ite32 - tau) * (ite32 - tau);
      ate64 += ite64;
      ate32 += ite32;
    }
    const double n = static_cast<double>(test.n());
    pehe64 = std::sqrt(pehe64 / n);
    pehe32 = std::sqrt(pehe32 / n);
    EXPECT_NEAR(pehe32, pehe64, kMetricDriftBudget) << "rho " << rho_grid[r];
    EXPECT_NEAR(ate32 / n, ate64 / n, kMetricDriftBudget)
        << "rho " << rho_grid[r];
  }
}

TEST(PrecisionServingTest, PrecisionKnobResolution) {
  // The env knob wins over the field, matching SBRL_ISA's semantics;
  // unset env leaves the field; garbage falls back to it with a warning.
  {
    ScopedPrecisionEnv pin("f32");
    EXPECT_EQ(ResolvePrecision(Precision::kF64), Precision::kF32);
  }
  {
    ScopedPrecisionEnv pin("f64");
    EXPECT_EQ(ResolvePrecision(Precision::kF32), Precision::kF64);
  }
  {
    // Unknown name: ignored with one warning per process that names the
    // variable and the accepted values.
    ScopedPrecisionEnv pin("bfloat16");
    testing::internal::CaptureStderr();
    EXPECT_EQ(ResolvePrecision(Precision::kF32), Precision::kF32);
    EXPECT_EQ(ResolvePrecision(Precision::kF64), Precision::kF64);
    const std::string warned = testing::internal::GetCapturedStderr();
    EXPECT_NE(warned.find("SBRL_PRECISION"), std::string::npos) << warned;
    EXPECT_NE(warned.find("bfloat16"), std::string::npos) << warned;
    EXPECT_NE(warned.find("f64|f32"), std::string::npos) << warned;
    EXPECT_EQ(warned.find("SBRL_PRECISION"), warned.rfind("SBRL_PRECISION"))
        << "warned more than once: " << warned;
  }
  EXPECT_EQ(std::string(PrecisionName(Precision::kF32)), "f32");
  EXPECT_EQ(std::string(PrecisionName(Precision::kF64)), "f64");
}

}  // namespace
}  // namespace sbrl
