#include "data/ihdp.h"

#include <cmath>

#include "data/sampling.h"
#include "data/split.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {

namespace {

/// Draws one beta coefficient from Hill's categorical prior.
double DrawBeta(Rng& rng) {
  const double u = rng.Uniform();
  if (u < 0.6) return 0.0;
  if (u < 0.7) return 0.1;
  if (u < 0.8) return 0.2;
  if (u < 0.9) return 0.3;
  return 0.4;
}

}  // namespace

RealWorldSplits MakeIhdpReplication(const IhdpConfig& config, uint64_t seed) {
  SBRL_CHECK_GT(config.n, 20);
  Rng rng(seed);
  const int64_t n = config.n;
  const int64_t d = config.total_covariates();

  // --- Covariates: correlated continuous block + binary block. ---
  const int64_t n_factors = 2;
  Matrix loadings = rng.Randn(n_factors, config.continuous, 0.0, 0.6);
  Matrix bin_p = rng.Rand(1, config.binary, 0.1, 0.9);
  Matrix x(n, d);
  for (int64_t i = 0; i < n; ++i) {
    Matrix f = rng.Randn(1, n_factors);
    for (int64_t j = 0; j < config.continuous; ++j) {
      double latent = 0.0;
      for (int64_t k = 0; k < n_factors; ++k) latent += f(0, k) * loadings(k, j);
      x(i, j) = latent + rng.Normal(0.0, 0.8);
    }
    for (int64_t j = 0; j < config.binary; ++j) {
      x(i, config.continuous + j) = rng.Bernoulli(bin_p(0, j)) ? 1.0 : 0.0;
    }
  }

  // --- Treatment with selection bias, calibrated to the IHDP treated
  // fraction (139 / 747) via bisection on the propensity intercept. ---
  Matrix gamma = rng.Randn(d, 1, 0.0, 0.3);
  Matrix score(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < d; ++j) s += gamma(j, 0) * x(i, j);
    score(i, 0) = s;
  }
  double lo = -10.0, hi = 10.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double expected = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      expected += StableSigmoid(score(i, 0) + mid);
    }
    expected /= static_cast<double>(n);
    if (expected > config.target_treated_fraction) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const double intercept = 0.5 * (lo + hi);

  // --- Outcomes: Hill's heterogeneous response surface. ---
  Matrix beta(d, 1);
  for (int64_t j = 0; j < d; ++j) beta(j, 0) = DrawBeta(rng);
  Matrix mu0(n, 1), mu1_raw(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    double dot = 0.0, dot_shift = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      dot += beta(j, 0) * x(i, j);
      dot_shift += beta(j, 0) * (x(i, j) + 0.5);
    }
    mu0(i, 0) = std::exp(dot_shift);
    mu1_raw(i, 0) = dot;
  }
  // Calibrate omega so the sample ATE is exactly 4.
  const double omega = (mu1_raw.Mean() - mu0.Mean()) - 4.0;

  CausalDataset all;
  all.x = x;
  all.y = Matrix(n, 1);
  all.mu0 = mu0;
  all.mu1 = Matrix(n, 1);
  all.t.resize(static_cast<size_t>(n));
  all.binary_outcome = false;
  for (int64_t i = 0; i < n; ++i) {
    all.mu1(i, 0) = mu1_raw(i, 0) - omega;
    const int ti =
        rng.Bernoulli(StableSigmoid(score(i, 0) + intercept)) ? 1 : 0;
    all.t[static_cast<size_t>(i)] = ti;
    const double mu = ti == 1 ? all.mu1(i, 0) : all.mu0(i, 0);
    all.y(i, 0) = mu + rng.Normal();
  }

  // --- Biased OOD test split over the continuous covariates. ---
  std::vector<double> log_w(static_cast<size_t>(n));
  const BiasRate rate(config.rho);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> xc(static_cast<size_t>(config.continuous));
    for (int64_t j = 0; j < config.continuous; ++j) {
      xc[static_cast<size_t>(j)] = x(i, j);
    }
    const double ite = all.mu1(i, 0) - all.mu0(i, 0);
    log_w[static_cast<size_t>(i)] =
        BiasedSelectionLogWeight(ite, xc, rate);
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
