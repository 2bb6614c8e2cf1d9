#include "data/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sbrl {

double BiasedSelectionLogWeight(double ite,
                                const std::vector<double>& unstable_values,
                                double rho) {
  SBRL_CHECK_GT(std::abs(rho), 1.0) << "bias rate must satisfy |rho| > 1";
  const double sign = rho > 0.0 ? 1.0 : -1.0;
  const double log_abs_rho = std::log(std::abs(rho));
  double log_w = 0.0;
  for (double xv : unstable_values) {
    const double d = std::abs(ite - sign * xv);
    log_w += -10.0 * d * log_abs_rho;
  }
  return log_w;
}

std::vector<int64_t> WeightedSampleWithoutReplacement(
    const std::vector<double>& log_weights, int64_t k, Rng& rng) {
  const int64_t n = static_cast<int64_t>(log_weights.size());
  SBRL_CHECK_LE(k, n);
  SBRL_CHECK_GE(k, 0);
  // Efraimidis-Spirakis: rank by u^(1/w) descending, equivalently by
  // log(E)/1 - log(w) ascending with E ~ Exp(1):
  //   key_i = log(E_i) - log_weights[i], take the k smallest keys.
  std::vector<std::pair<double, int64_t>> keys;
  keys.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    if (u <= 0.0) u = 1e-300;
    const double e = -std::log(u);  // Exp(1)
    keys.emplace_back(std::log(e) - log_weights[static_cast<size_t>(i)], i);
  }
  std::partial_sort(keys.begin(), keys.begin() + static_cast<long>(k),
                    keys.end());
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    out.push_back(keys[static_cast<size_t>(i)].second);
  }
  return out;
}

bool AcceptWithLogProb(double log_prob, Mt19937_64Block& engine) {
  SBRL_CHECK_LE(log_prob, 1e-12) << "acceptance log-probability above 0";
  if (log_prob <= -700.0) return false;  // exp underflow: never accept
  return Canonical53(engine) < std::exp(log_prob);
}

}  // namespace sbrl
