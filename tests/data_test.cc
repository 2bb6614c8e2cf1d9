#include <gtest/gtest.h>

#include <array>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <locale>
#include <numeric>
#include <string>
#include <vector>

#include "data/causal_dataset.h"
#include "data/csv.h"
#include "data/ihdp.h"
#include "data/sampling.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/twins.h"
#include "stats/ipm.h"
#include "tensor/linalg.h"

namespace sbrl {
namespace {

CausalDataset TinyDataset() {
  CausalDataset d;
  d.x = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  d.t = {1, 0, 1, 0};
  d.y = Matrix::ColumnVector({1, 0, 1, 1});
  d.mu0 = Matrix::ColumnVector({0, 0, 0, 1});
  d.mu1 = Matrix::ColumnVector({1, 1, 1, 1});
  return d;
}

TEST(CausalDatasetTest, IndicesSplitByTreatment) {
  CausalDataset d = TinyDataset();
  EXPECT_EQ(d.TreatedIndices(), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(d.ControlIndices(), (std::vector<int64_t>{1, 3}));
}

TEST(CausalDatasetTest, TrueIteAndAte) {
  CausalDataset d = TinyDataset();
  EXPECT_EQ(d.TrueIte(), (std::vector<double>{1, 1, 1, 0}));
  EXPECT_DOUBLE_EQ(d.TrueAte(), 0.75);
}

TEST(CausalDatasetTest, CounterfactualOutcomes) {
  CausalDataset d = TinyDataset();
  // Treated units report mu0; control units report mu1.
  EXPECT_EQ(d.CounterfactualOutcomes(), (std::vector<double>{0, 1, 0, 1}));
}

TEST(CausalDatasetTest, SubsetPreservesAlignment) {
  CausalDataset d = TinyDataset();
  CausalDataset s = d.Subset({2, 0});
  EXPECT_EQ(s.n(), 2);
  EXPECT_EQ(s.x(0, 0), 5);
  EXPECT_EQ(s.t[0], 1);
  EXPECT_EQ(s.y(1, 0), 1);
  EXPECT_EQ(s.mu0(0, 0), 0);
}

TEST(CausalDatasetTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(TinyDataset().Validate().ok());
}

TEST(CausalDatasetTest, ValidateRejectsEmptyAndOneArm) {
  CausalDataset empty;
  EXPECT_EQ(empty.Validate().code(), StatusCode::kInvalidArgument);
  CausalDataset d = TinyDataset();
  d.t = {1, 1, 1, 1};
  EXPECT_EQ(d.Validate().code(), StatusCode::kFailedPrecondition);
  d.t = {0, 0, 0, 0};
  EXPECT_EQ(d.Validate().code(), StatusCode::kFailedPrecondition);
  d.t = {0, 1, 2, 0};
  EXPECT_EQ(d.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(CausalDatasetTest, ValidateRejectsShapeMismatches) {
  CausalDataset d = TinyDataset();
  d.y = Matrix(3, 1);
  EXPECT_FALSE(d.Validate().ok());
  d = TinyDataset();
  d.mu1 = Matrix(4, 2);
  EXPECT_FALSE(d.Validate().ok());
}

TEST(SamplingTest, LogWeightMatchesClosedForm) {
  // One unstable value, rho = 2.5, ITE = 1, x = 0.6:
  // D = |1 - 0.6| = 0.4, log Pr = -10 * 0.4 * ln 2.5.
  const double lw = BiasedSelectionLogWeight(1.0, {0.6}, 2.5);
  EXPECT_NEAR(lw, -4.0 * std::log(2.5), 1e-12);
}

TEST(SamplingTest, NegativeRhoFlipsSign) {
  // rho < 0: D = |ITE + x|. Perfect anti-alignment gives weight 1.
  const double lw = BiasedSelectionLogWeight(1.0, {-1.0}, -2.5);
  EXPECT_NEAR(lw, 0.0, 1e-12);
}

TEST(SamplingTest, RhoInsideUnitIntervalDies) {
  EXPECT_DEATH(BiasedSelectionLogWeight(0.0, {0.0}, 0.5), "rho");
}

TEST(SamplingTest, WeightedSampleSelectsHighWeightItems) {
  Rng rng(1);
  // Item 0 has overwhelmingly larger weight; it should almost always be
  // chosen when sampling 1 of 3.
  std::vector<double> log_w = {0.0, -20.0, -20.0};
  int hits = 0;
  for (int rep = 0; rep < 200; ++rep) {
    auto picked = WeightedSampleWithoutReplacement(log_w, 1, rng);
    if (picked[0] == 0) ++hits;
  }
  EXPECT_GT(hits, 195);
}

TEST(SamplingTest, WeightedSampleReturnsDistinctIndices) {
  Rng rng(2);
  std::vector<double> log_w(10, 0.0);
  auto picked = WeightedSampleWithoutReplacement(log_w, 10, rng);
  std::sort(picked.begin(), picked.end());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(picked[static_cast<size_t>(i)], i);
}

// Replays a fixed list of 64-bit outputs and counts how many were read.
struct StubEngine {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return values.at(next++); }
  std::vector<uint64_t> values;
  size_t next = 0;
};

TEST(SamplingTest, LazyBiasedDecisionMatchesEager) {
  // Uniforms the stub hands out: ~0.1 and the clamped ~1.
  const uint64_t kTenth = 0x1999999999999999ULL;
  const uint64_t kNearOne = ~uint64_t{0};
  struct Case {
    const char* name;
    std::array<double, 3> log_w;
    uint64_t u;
    // Per true ITE -1, 0, +1: does the lazy path compute the ITE, and
    // how many uniforms does it draw?
    std::array<int, 3> ite_calls;
    std::array<size_t, 3> draws;
  };
  const std::vector<Case> cases = {
      {"all below -700", {-800.0, -750.0, -700.0}, kTenth, {0, 0, 0},
       {0, 0, 0}},
      {"mixed", {-800.0, -1.0, -0.5}, kTenth, {1, 1, 1}, {0, 1, 1}},
      {"all above, bound reject", {-1.0, -2.0, -3.0}, kNearOne, {0, 0, 0},
       {1, 1, 1}},
      {"all above, full check", {-0.1, -5.0, -0.2}, kTenth, {1, 1, 1},
       {1, 1, 1}},
  };
  for (const Case& c : cases) {
    for (int ite = -1; ite <= 1; ++ite) {
      SCOPED_TRACE(std::string(c.name) + ", ite " + std::to_string(ite));
      const size_t slot = static_cast<size_t>(ite + 1);
      StubEngine lazy{{c.u}};
      StubEngine eager{{c.u}};
      int calls = 0;
      const bool lazy_keep = AcceptBiasedLazy(
          c.log_w,
          [&] {
            ++calls;
            return static_cast<double>(ite);
          },
          lazy);
      const bool eager_keep = AcceptWithLogProb(c.log_w[slot], eager);
      EXPECT_EQ(lazy_keep, eager_keep);
      EXPECT_EQ(lazy.next, eager.next);
      EXPECT_EQ(calls, c.ite_calls[slot]);
      EXPECT_EQ(lazy.next, c.draws[slot]);
    }
  }
  // The full check reaches both outcomes: u ~ 0.1 is below exp(-0.1)
  // and above exp(-5).
  StubEngine engine{{kTenth, kTenth}};
  EXPECT_TRUE(AcceptBiasedLazy(
      cases[3].log_w, [] { return -1.0; }, engine));
  EXPECT_FALSE(AcceptBiasedLazy(
      cases[3].log_w, [] { return 0.0; }, engine));
}

TEST(SamplingTest, AcceptWithLogProbExtremes) {
  Mt19937_64Block engine(3);
  // Below the -700 underflow cut the unit is rejected without a draw:
  // the engine's next output is still its first.
  const Mt19937_64Block fresh = engine;
  EXPECT_FALSE(AcceptWithLogProb(-800.0, engine));
  EXPECT_FALSE(AcceptWithLogProb(-700.0, engine));
  Mt19937_64Block untouched = fresh;
  EXPECT_EQ(engine(), untouched());
  // Above it every call reads one uniform, and log_prob 0 always accepts.
  engine = fresh;
  int accepts = 0;
  for (int i = 0; i < 100; ++i) accepts += AcceptWithLogProb(0.0, engine);
  EXPECT_EQ(accepts, 100);
  untouched = fresh;
  for (int i = 0; i < 100; ++i) untouched();
  EXPECT_EQ(engine(), untouched());
  EXPECT_DEATH(AcceptWithLogProb(1e-3, engine), "above 0");
}

TEST(SplitTest, IndicesPartitionCompletely) {
  Rng rng(4);
  auto [a, b] = SplitIndices(100, 0.7, rng);
  EXPECT_EQ(a.size(), 70u);
  EXPECT_EQ(b.size(), 30u);
  std::vector<int64_t> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(SplitTest, ExtremeFractionStillLeavesBothParts) {
  Rng rng(5);
  auto [a, b] = SplitIndices(10, 0.999, rng);
  EXPECT_GE(b.size(), 1u);
  EXPECT_GE(a.size(), 1u);
}

TEST(SyntheticModelTest, DimensionsAndBinaryOutcomes) {
  SyntheticDims dims;  // 8/8/8/2
  SyntheticModel model(dims, 42);
  CausalDataset data = model.SampleUnbiased(500, 7);
  EXPECT_EQ(data.n(), 500);
  EXPECT_EQ(data.dim(), 26);
  EXPECT_TRUE(data.Validate().ok());
  for (int64_t i = 0; i < data.n(); ++i) {
    EXPECT_TRUE(data.mu0(i, 0) == 0.0 || data.mu0(i, 0) == 1.0);
    EXPECT_TRUE(data.mu1(i, 0) == 0.0 || data.mu1(i, 0) == 1.0);
    const double expected =
        data.t[static_cast<size_t>(i)] == 1 ? data.mu1(i, 0) : data.mu0(i, 0);
    EXPECT_EQ(data.y(i, 0), expected);
  }
}

TEST(SyntheticModelTest, OutcomeRatesAreNonDegenerate) {
  SyntheticModel model(SyntheticDims{}, 43);
  CausalDataset data = model.SampleUnbiased(2000, 11);
  const double rate0 = data.mu0.Mean();
  const double rate1 = data.mu1.Mean();
  EXPECT_GT(rate0, 0.2);
  EXPECT_LT(rate0, 0.8);
  EXPECT_GT(rate1, 0.2);
  EXPECT_LT(rate1, 0.8);
}

TEST(SyntheticModelTest, SelectionBiasExistsInTreatmentAssignment) {
  // Confounder means should differ between arms (imbalanced treatment
  // assignment = paper challenge C1).
  SyntheticModel model(SyntheticDims{}, 44);
  CausalDataset data = model.SampleUnbiased(4000, 13);
  Matrix x_treated = GatherRows(data.x, data.TreatedIndices());
  Matrix x_control = GatherRows(data.x, data.ControlIndices());
  // Squared distance between the arms' covariate means.
  const Matrix gap = ColMean(x_treated) - ColMean(x_control);
  double mean_gap2 = 0.0;
  for (int64_t c = 0; c < gap.cols(); ++c) mean_gap2 += gap(0, c) * gap(0, c);
  EXPECT_GT(mean_gap2, 0.05);
}

TEST(SyntheticModelTest, DeterministicGivenSeeds) {
  SyntheticModel m1(SyntheticDims{}, 45);
  SyntheticModel m2(SyntheticDims{}, 45);
  CausalDataset a = m1.SampleEnvironment(200, 2.5, 99);
  CausalDataset b = m2.SampleEnvironment(200, 2.5, 99);
  EXPECT_TRUE(AllClose(a.x, b.x, 0.0));
  EXPECT_EQ(a.t, b.t);
}

TEST(SyntheticModelTest, BiasRateInducesIteUnstableCorrelation) {
  // Under rho > 1, selection keeps units whose unstable features align
  // with the ITE; under rho < -1 the correlation flips sign.
  SyntheticModel model(SyntheticDims{}, 46);
  auto correlation_with_ite = [&](double rho) {
    CausalDataset env = model.SampleEnvironment(1500, rho, 17);
    const auto ite = env.TrueIte();
    const int64_t v0 = model.unstable_begin();
    double mean_x = 0.0, mean_i = 0.0;
    for (int64_t i = 0; i < env.n(); ++i) {
      mean_x += env.x(i, v0);
      mean_i += ite[static_cast<size_t>(i)];
    }
    mean_x /= static_cast<double>(env.n());
    mean_i /= static_cast<double>(env.n());
    double cov = 0.0, var_x = 0.0, var_i = 0.0;
    for (int64_t i = 0; i < env.n(); ++i) {
      const double dx = env.x(i, v0) - mean_x;
      const double di = ite[static_cast<size_t>(i)] - mean_i;
      cov += dx * di;
      var_x += dx * dx;
      var_i += di * di;
    }
    return cov / std::sqrt(var_x * var_i);
  };
  const double corr_pos = correlation_with_ite(2.5);
  const double corr_neg = correlation_with_ite(-2.5);
  EXPECT_GT(corr_pos, 0.15);
  EXPECT_LT(corr_neg, -0.15);
}

TEST(SyntheticModelTest, DistributionShiftGrowsWithRhoGap) {
  // The covariate distribution of rho = -2.5 should differ more from
  // the rho = 2.5 training environment than rho = 1.3 does.
  SyntheticModel model(SyntheticDims{}, 47);
  CausalDataset train = model.SampleEnvironment(1200, 2.5, 21);
  CausalDataset near = model.SampleEnvironment(1200, 1.3, 22);
  CausalDataset far = model.SampleEnvironment(1200, -2.5, 23);
  Rng proj_rng(24);
  const double d_near = SlicedWasserstein1(train.x, near.x, 24, proj_rng);
  Rng proj_rng2(24);
  const double d_far = SlicedWasserstein1(train.x, far.x, 24, proj_rng2);
  EXPECT_GT(d_far, d_near);
}

TEST(SyntheticModelTest, Syn16VariantHasLargerDimension) {
  SyntheticDims dims;
  dims.m_i = dims.m_c = dims.m_a = 16;
  dims.m_v = 2;
  SyntheticModel model(dims, 48);
  CausalDataset data = model.SampleUnbiased(100, 5);
  EXPECT_EQ(data.dim(), 50);
  EXPECT_EQ(model.unstable_begin(), 48);
}

// FNV-1a 64 over raw bytes, chained through `h`.
uint64_t Fnv1a64(uint64_t h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t SyntheticHash(const SyntheticModel& model, const CausalDataset& d) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Matrix* m : {&d.x, &d.y, &d.mu0, &d.mu1}) {
    h = Fnv1a64(h, m->data(), static_cast<size_t>(m->size()) * sizeof(double));
  }
  h = Fnv1a64(h, d.t.data(), d.t.size() * sizeof(int));
  const double thr[2] = {model.threshold0(), model.threshold1()};
  return Fnv1a64(h, thr, sizeof(thr));
}

// Pins the synthetic stream bit for bit: every dataset the generator
// produces (biased environments on both sides of rho, unbiased draws,
// streamed chunks) hashes to the value the reference implementation
// produced. Any change to engine consumption order, rejection order
// or arithmetic shows up here, not as a silent distribution shift.
TEST(SyntheticStreamLockTest, HashesMatchPinnedStream) {
  const std::vector<SyntheticDims> grid = {
      {8, 8, 8, 2}, {2, 3, 2, 1}, {8, 8, 8, 3}};
  const std::vector<double> rhos = {1.05, -1.05, 1.3, -1.3, 1.5,
                                    -1.5, 2.5,   -2.5, 3.0, -3.0};
  std::vector<uint64_t> got;
  for (size_t g = 0; g < grid.size(); ++g) {
    const SyntheticModel model(grid[g], 31 + g);
    for (size_t r = 0; r < rhos.size(); ++r) {
      got.push_back(SyntheticHash(
          model, model.SampleEnvironment(40, rhos[r], 100 + r)));
    }
    got.push_back(SyntheticHash(model, model.SampleUnbiased(64, 7)));
    for (double rho : {1.0, 2.5}) {
      for (int64_t chunk = 0; chunk < 3; ++chunk) {
        got.push_back(SyntheticHash(
            model, model.SampleEnvironmentChunk(24, rho, 11, chunk)));
      }
    }
  }
  const std::vector<uint64_t> want = {
      // dims {8,8,8,2}: rho +-1.05 .. +-3.0, unbiased, chunks (rho 1, 2.5)
      0x97fcf8dc0842d87dULL, 0xc112e3a986c235a1ULL, 0xe26f84b75c66eb5fULL,
      0x2b7dbbbfc74f0ff8ULL, 0xeb23f3e150604471ULL, 0xd588dc8415d7010fULL,
      0x576d3776492defafULL, 0x5a88ffa2af8e420eULL, 0xde75880af03448e7ULL,
      0xd19e487c74ffcd5eULL, 0x0dcd44d4cab4aa3bULL, 0x43ed3d43c1dc586fULL,
      0x2867b743e6a20e75ULL, 0x728792fd8c1ad4acULL, 0x6419344a1fd85d3cULL,
      0x3a419aab1b328722ULL, 0xd041b0339c7da5d8ULL,
      // dims {2,3,2,1}: rho +-1.05 .. +-3.0, unbiased, chunks (rho 1, 2.5)
      0xc56eb8e123f980e4ULL, 0xa6e8cfcac92c0e40ULL, 0x9b305ae600902060ULL,
      0x8f5c606a510129edULL, 0x22388c5d69045176ULL, 0x9af23bab4773ade4ULL,
      0x414cd8d7293a5368ULL, 0xd2551b9c296b38cdULL, 0x02f4e37afe4194cfULL,
      0xd7bbd03f3270b7dbULL, 0x74803203515f2bb7ULL, 0x51e840acd40cf9b2ULL,
      0xefbb3d97fdb36b60ULL, 0x8ccdf7be65120579ULL, 0x463f00d173696061ULL,
      0xa0a09076a0960437ULL, 0x38e413989e555d63ULL,
      // dims {8,8,8,3}: rho +-1.05 .. +-3.0, unbiased, chunks (rho 1, 2.5)
      0x1b88a1346722f5c3ULL, 0x3e8d6ea9c9a550b6ULL, 0xc84f269ff0bbcce3ULL,
      0xfe590159746cd1bbULL, 0x66ea17b1ce0113a5ULL, 0xe2351f8902a2dd44ULL,
      0xc9be0969719cbd5cULL, 0x4f4a0395bdf7a317ULL, 0x8da70a2a7d8e2079ULL,
      0x0f36b46dbb7d092dULL, 0x014cb76ea68b3d02ULL, 0x552dcb310fa49cd9ULL,
      0x3213e51738220e42ULL, 0xdbd1eeb56a91de2aULL, 0xfa01d8e1f36065a4ULL,
      0x15c71bb43a6c2272ULL, 0x44d5a41c5d709c6aULL,
  };
  std::string dump;
  for (uint64_t h : got) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL,",
                  static_cast<unsigned long long>(h));
    dump += buf;
  }
  EXPECT_EQ(got, want) << dump;
}

TEST(TwinsTest, SplitSizesMatchConfiguration) {
  TwinsConfig config;
  config.n = 1000;  // scaled down for test speed
  RealWorldSplits splits = MakeTwinsReplication(config, 7);
  EXPECT_EQ(splits.test.n(), 200);
  EXPECT_EQ(splits.train.n(), 560);  // 70% of 800
  EXPECT_EQ(splits.valid.n(), 240);
  EXPECT_TRUE(splits.train.Validate().ok());
  EXPECT_TRUE(splits.valid.Validate().ok());
  EXPECT_TRUE(splits.test.Validate().ok());
  EXPECT_EQ(splits.train.dim(), 43);
}

TEST(TwinsTest, MortalityRatesAreRealistic) {
  TwinsConfig config;
  config.n = 3000;
  RealWorldSplits splits = MakeTwinsReplication(config, 8);
  // Pool train+valid: lighter-twin mortality higher than heavier-twin.
  const double m0 = splits.train.mu0.Mean();
  const double m1 = splits.train.mu1.Mean();
  EXPECT_GT(m0, 0.05);
  EXPECT_LT(m0, 0.45);
  EXPECT_LT(m1, m0);  // heavier twin survives more
}

TEST(TwinsTest, TestSplitIsShifted) {
  TwinsConfig config;
  config.n = 2500;
  RealWorldSplits splits = MakeTwinsReplication(config, 9);
  // The unstable block (last 5 columns) should show a mean shift
  // between train and the biased test environment.
  const int64_t v0 = config.real_covariates + config.instruments;
  double shift = 0.0;
  for (int64_t v = 0; v < config.unstable; ++v) {
    shift += std::abs(ColMean(splits.test.x)(0, v0 + v) -
                      ColMean(splits.train.x)(0, v0 + v));
  }
  EXPECT_GT(shift, 0.1);
}

TEST(IhdpTest, ShapesTreatedFractionAndContinuousOutcome) {
  IhdpConfig config;
  RealWorldSplits splits = MakeIhdpReplication(config, 10);
  const int64_t total =
      splits.train.n() + splits.valid.n() + splits.test.n();
  EXPECT_EQ(total, 747);
  EXPECT_EQ(splits.test.n(), 75);
  EXPECT_EQ(splits.train.dim(), 25);
  EXPECT_FALSE(splits.train.binary_outcome);
  int64_t treated = 0;
  for (int v : splits.train.t) treated += v;
  for (int v : splits.valid.t) treated += v;
  for (int v : splits.test.t) treated += v;
  const double frac = static_cast<double>(treated) / 747.0;
  EXPECT_NEAR(frac, 139.0 / 747.0, 0.06);
}

TEST(IhdpTest, SampleAteIsFourOnFullData) {
  IhdpConfig config;
  RealWorldSplits splits = MakeIhdpReplication(config, 11);
  double sum_ite = 0.0;
  int64_t n = 0;
  for (const CausalDataset* d :
       {&splits.train, &splits.valid, &splits.test}) {
    for (double ite : d->TrueIte()) {
      sum_ite += ite;
      ++n;
    }
  }
  EXPECT_NEAR(sum_ite / static_cast<double>(n), 4.0, 1e-9);
}

TEST(IhdpTest, EffectsAreHeterogeneous) {
  IhdpConfig config;
  RealWorldSplits splits = MakeIhdpReplication(config, 12);
  const auto ite = splits.train.TrueIte();
  double mean = std::accumulate(ite.begin(), ite.end(), 0.0) /
                static_cast<double>(ite.size());
  double var = 0.0;
  for (double v : ite) var += (v - mean) * (v - mean);
  var /= static_cast<double>(ite.size());
  EXPECT_GT(var, 0.1);  // non-constant treatment effect
}

TEST(CsvTest, RoundTripPreservesEverything) {
  CausalDataset d = TinyDataset();
  d.binary_outcome = true;
  const std::string path = "/tmp/sbrl_csv_roundtrip.csv";
  ASSERT_TRUE(SaveCausalDatasetCsv(d, path).ok());
  auto loaded = LoadCausalDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(AllClose(loaded->x, d.x, 0.0));
  EXPECT_EQ(loaded->t, d.t);
  EXPECT_TRUE(AllClose(loaded->y, d.y, 0.0));
  EXPECT_TRUE(AllClose(loaded->mu0, d.mu0, 0.0));
  EXPECT_TRUE(AllClose(loaded->mu1, d.mu1, 0.0));
  EXPECT_TRUE(loaded->binary_outcome);
  std::remove(path.c_str());
}

TEST(CsvTest, ContinuousFlagRoundTrips) {
  CausalDataset d = TinyDataset();
  d.binary_outcome = false;
  const std::string path = "/tmp/sbrl_csv_cont.csv";
  ASSERT_TRUE(SaveCausalDatasetCsv(d, path).ok());
  auto loaded = LoadCausalDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->binary_outcome);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileReturnsNotFound) {
  auto result = LoadCausalDatasetCsv("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, MalformedContentRejected) {
  const std::string path = "/tmp/sbrl_csv_bad.csv";
  {
    std::ofstream out(path);
    out << "x0,t,y,mu0,mu1\n";
    out << "1.0,0,0.5,0.0\n";  // one field short
  }
  auto result = LoadCausalDatasetCsv(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CsvTest, NonFiniteFieldRejectedWithLineNumber) {
  const std::string path = "/tmp/sbrl_csv_nonfinite.csv";
  {
    std::ofstream out(path);
    out << "x0,t,y,mu0,mu1\n";
    out << "1.0,0,0.5,0.0,1.0\n";
    out << "nan,1,0.5,0.0,1.0\n";  // strtod parses "nan" happily
  }
  auto result = LoadCausalDatasetCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("non-finite"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, InfinityFieldRejected) {
  const std::string path = "/tmp/sbrl_csv_inf.csv";
  {
    std::ofstream out(path);
    out << "x0,t,y,mu0,mu1\n";
    out << "inf,0,0.5,0.0,1.0\n";
  }
  auto result = LoadCausalDatasetCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CausalDatasetTest, ValidateRejectsNonFiniteValues) {
  const double nan = std::nan("");
  {
    CausalDataset d = TinyDataset();
    d.x(1, 1) = nan;
    EXPECT_EQ(d.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    CausalDataset d = TinyDataset();
    d.y(0, 0) = std::numeric_limits<double>::infinity();
    EXPECT_EQ(d.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    CausalDataset d = TinyDataset();
    d.mu1(2, 0) = nan;
    EXPECT_EQ(d.Validate().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(TinyDataset().Validate().ok());
}

// numpunct facet that renders the decimal point as a comma — the
// hostile half of a de_DE-style locale, available on every container
// (named locales like de_DE.UTF-8 often are not installed).
class CommaDecimalPoint : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
};

// RAII: installs a comma-decimal global locale (C++ streams AND the C
// locale strtod reads) for one test body, restoring both on exit.
class ScopedCommaLocale {
 public:
  ScopedCommaLocale()
      : previous_cpp_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimalPoint))),
        previous_c_(std::setlocale(LC_NUMERIC, nullptr)) {
    // Best-effort C-locale switch too: protects the loader against a
    // regression to strtod, which honors LC_NUMERIC. Skipped silently
    // when no comma-decimal locale is installed.
    for (const char* name : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) break;
    }
  }
  ~ScopedCommaLocale() {
    std::setlocale(LC_NUMERIC, previous_c_.c_str());
    std::locale::global(previous_cpp_);
  }

 private:
  std::locale previous_cpp_;
  std::string previous_c_;
};

TEST(CsvTest, RoundTripSurvivesCommaDecimalLocale) {
  // Under an unpatched writer, ofstream picks up the global locale and
  // emits "0,5" — which the loader then (rightly) rejects as a field
  // count mismatch. The writer must imbue the classic locale and the
  // parser must be locale-independent.
  ScopedCommaLocale comma_locale;
  CausalDataset d = TinyDataset();
  d.x(0, 0) = 1.5;
  d.y(1, 0) = 0.25;
  const std::string path = "/tmp/sbrl_csv_locale.csv";
  ASSERT_TRUE(SaveCausalDatasetCsv(d, path).ok());
  auto loaded = LoadCausalDatasetCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AllClose(loaded->x, d.x, 0.0));
  EXPECT_TRUE(AllClose(loaded->y, d.y, 0.0));
  EXPECT_TRUE(AllClose(loaded->mu0, d.mu0, 0.0));
  EXPECT_TRUE(AllClose(loaded->mu1, d.mu1, 0.0));
  std::remove(path.c_str());
}

TEST(CsvTest, RandomRoundTripIsBitwise) {
  // precision(17) + locale-independent parse: doubles survive the
  // round trip bit for bit, including awkward magnitudes.
  SyntheticDims dims;
  const SyntheticModel model(dims, 5);
  CausalDataset d = model.SampleUnbiased(64, 8);
  d.x(0, 0) = 1e-300;
  d.x(1, 0) = -9.87654321e250;
  d.x(2, 0) = std::numeric_limits<double>::denorm_min();
  d.x(3, 0) = std::numeric_limits<double>::max();
  const std::string path = "/tmp/sbrl_csv_bitwise.csv";
  ASSERT_TRUE(SaveCausalDatasetCsv(d, path).ok());
  auto loaded = LoadCausalDatasetCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AllClose(loaded->x, d.x, 0.0));
  EXPECT_TRUE(AllClose(loaded->y, d.y, 0.0));
  EXPECT_EQ(loaded->t, d.t);
  std::remove(path.c_str());
}

TEST(CsvTest, OverflowingFieldRejected) {
  const std::string path = "/tmp/sbrl_csv_overflow.csv";
  {
    std::ofstream out(path);
    out << "x0,t,y,mu0,mu1\n";
    out << "1e999,0,0.5,0.0,1.0\n";  // overflows double
  }
  auto result = LoadCausalDatasetCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(CsvTest, NonBinaryTreatmentRejected) {
  const std::string path = "/tmp/sbrl_csv_badt.csv";
  {
    std::ofstream out(path);
    out << "x0,t,y,mu0,mu1\n";
    out << "1.0,2,0.5,0.0,1.0\n";
  }
  auto result = LoadCausalDatasetCsv(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sbrl
