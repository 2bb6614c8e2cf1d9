#include "data/twins.h"

#include "data/sampling.h"
#include "data/split.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {

RealWorldSplits MakeTwinsReplication(const TwinsConfig& config,
                                     uint64_t seed) {
  SBRL_CHECK_GT(config.n, 10);
  SBRL_CHECK_GT(config.real_covariates, 4);
  Rng rng(seed);
  const int64_t n = config.n;
  const int64_t d_real = config.real_covariates;
  const int64_t d = config.total_covariates();
  const int64_t n_bin = d_real * 2 / 3;  // most Twins covariates are coded

  // Latent-factor loadings shared by all units (fixed per replication).
  const int64_t n_factors = 3;
  Matrix loadings = rng.Randn(n_factors, d_real, 0.0, 0.8);
  Matrix bin_intercept = rng.Randn(1, d_real, 0.0, 0.5);

  // Outcome model: logistic mortality with shared main effects and a
  // small heterogeneous modifier so ITE varies across units. The
  // treated (heavier twin) intercept is lower: heavier twins die less.
  Matrix beta = rng.Randn(d_real, 1, 0.0, 0.35);
  Matrix beta_het = rng.Randn(d_real, 1, 0.0, 0.25);
  const double intercept0 = -1.6;  // ~17% base mortality for lighter twin
  const double intercept1 = -2.1;  // heavier twin lower base mortality

  // Treatment model (paper): w ~ U(-0.1, 0.1) over X_IC, eta ~ N(0, 0.1).
  Matrix w_t = rng.Rand(d_real + config.instruments, 1, -0.1, 0.1);

  CausalDataset all;
  all.x = Matrix(n, d);
  all.y = Matrix(n, 1);
  all.mu0 = Matrix(n, 1);
  all.mu1 = Matrix(n, 1);
  all.t.resize(static_cast<size_t>(n));
  all.binary_outcome = true;

  for (int64_t i = 0; i < n; ++i) {
    // Correlated real covariates via latent factors.
    Matrix f = rng.Randn(1, n_factors);
    for (int64_t j = 0; j < d_real; ++j) {
      double latent = 0.0;
      for (int64_t k = 0; k < n_factors; ++k) latent += f(0, k) * loadings(k, j);
      if (j < n_bin) {
        const double p = StableSigmoid(latent + bin_intercept(0, j));
        all.x(i, j) = rng.Bernoulli(p) ? 1.0 : 0.0;
      } else {
        all.x(i, j) = latent + rng.Normal(0.0, 0.6);
      }
    }
    // Paper-added instrumental and unstable blocks.
    for (int64_t j = d_real; j < d; ++j) all.x(i, j) = rng.Normal();

    // Potential mortality outcomes (realized binaries, as in the real
    // Twins data where both twins' outcomes are observed).
    double score = 0.0, het = 0.0;
    for (int64_t j = 0; j < d_real; ++j) {
      score += beta(j, 0) * all.x(i, j);
      het += beta_het(j, 0) * all.x(i, j);
    }
    const double p0 = StableSigmoid(intercept0 + score);
    const double p1 = StableSigmoid(intercept1 + score + 0.3 * het);
    all.mu0(i, 0) = rng.Bernoulli(p0) ? 1.0 : 0.0;
    all.mu1(i, 0) = rng.Bernoulli(p1) ? 1.0 : 0.0;

    // Treatment assignment over X_IC (real + instruments).
    double zt = rng.Normal(0.0, 0.1);
    for (int64_t j = 0; j < d_real + config.instruments; ++j) {
      zt += w_t(j, 0) * all.x(i, j);
    }
    const int ti = rng.Bernoulli(StableSigmoid(zt)) ? 1 : 0;
    all.t[static_cast<size_t>(i)] = ti;
    all.y(i, 0) = ti == 1 ? all.mu1(i, 0) : all.mu0(i, 0);
  }

  // Biased OOD test split over the unstable block.
  std::vector<double> log_w(static_cast<size_t>(n));
  const int64_t v_begin = d_real + config.instruments;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> xv(static_cast<size_t>(config.unstable));
    for (int64_t v = 0; v < config.unstable; ++v) {
      xv[static_cast<size_t>(v)] = all.x(i, v_begin + v);
    }
    const double ite = all.mu1(i, 0) - all.mu0(i, 0);
    log_w[static_cast<size_t>(i)] =
        BiasedSelectionLogWeight(ite, xv, config.rho);
  }
  const int64_t n_test =
      static_cast<int64_t>(std::round(config.test_fraction *
                                      static_cast<double>(n)));
  std::vector<int64_t> test_idx =
      WeightedSampleWithoutReplacement(log_w, n_test, rng);
  std::vector<bool> in_test(static_cast<size_t>(n), false);
  for (int64_t idx : test_idx) in_test[static_cast<size_t>(idx)] = true;
  std::vector<int64_t> rest;
  rest.reserve(static_cast<size_t>(n - n_test));
  for (int64_t i = 0; i < n; ++i) {
    if (!in_test[static_cast<size_t>(i)]) rest.push_back(i);
  }

  RealWorldSplits splits;
  splits.test = all.Subset(test_idx);
  CausalDataset remainder = all.Subset(rest);
  TrainValid tv =
      SplitTrainValid(remainder, config.train_fraction_of_rest, rng);
  splits.train = std::move(tv.train);
  splits.valid = std::move(tv.valid);
  return splits;
}

}  // namespace sbrl
