#include "data/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sbrl {

BiasRate::BiasRate(double rho)
    : rho(rho),
      sign(rho > 0.0 ? 1.0 : -1.0),
      log_abs(std::log(std::abs(rho))) {
  SBRL_CHECK_GT(std::abs(rho), 1.0) << "bias rate must satisfy |rho| > 1";
}

double BiasedSelectionLogWeight(double ite,
                                const std::vector<double>& unstable_values,
                                const BiasRate& rate) {
  double log_w = 0.0;
  for (double xv : unstable_values) {
    const double d = std::abs(ite - rate.sign * xv);
    log_w += -10.0 * d * rate.log_abs;
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

}  // namespace sbrl
