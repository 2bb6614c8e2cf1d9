#ifndef SBRL_DATA_SAMPLING_H_
#define SBRL_DATA_SAMPLING_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "tensor/random.h"

namespace sbrl {

/// A bias rate rho with |rho| > 1 (CHECK-enforced), with the sign and
/// log|rho| every selection weight reads, computed once. Implicit, so
/// a one-off weight reads BiasedSelectionLogWeight(ite, xv, rho).
struct BiasRate {
  BiasRate(double rho);

  double rho;
  double sign;
  double log_abs;
};

/// Log of the paper's biased selection probability for one unit:
/// Pr = prod_{X_i in X_V} |rho|^(-10 * D_i),
/// D_i = |ITE - sign(rho) * X_i|   (paper Sec. V-D / V-E).
/// Returned in log space because the product underflows for large |rho|.
/// |rho| > 1 makes Pr <= 1.
double BiasedSelectionLogWeight(double ite,
                                const std::vector<double>& unstable_values,
                                const BiasRate& rate);

/// Weighted sampling of `k` distinct indices with probability
/// proportional to exp(log_weights[i]) (Efraimidis-Spirakis reservoir
/// keys, computed in log space so astronomically small weights still
/// rank correctly).
std::vector<int64_t> WeightedSampleWithoutReplacement(
    const std::vector<double>& log_weights, int64_t k, Rng& rng);

/// At or below this log-probability exp underflows: AcceptWithLogProb
/// rejects without drawing.
constexpr double kAcceptLogProbFloor = -700.0;

/// Bernoulli acceptance with probability exp(log_prob) (log_prob <= 0):
/// one Canonical53 uniform compared `< exp(log_prob)`. At
/// log_prob <= kAcceptLogProbFloor the unit is rejected without
/// drawing, which is part of the synthetic stream identity.
template <class Engine>
bool AcceptWithLogProb(double log_prob, Engine& engine) {
  SBRL_CHECK_LE(log_prob, 1e-12) << "acceptance log-probability above 0";
  if (log_prob <= kAcceptLogProbFloor) return false;
  return Canonical53(engine) < std::exp(log_prob);
}

/// Lazy biased selection of a unit whose ITE is -1, 0 or +1 but costly
/// to compute. `log_w[i]` is the unit's log-weight at ITE i - 1, and
/// `ite()` computes the true ITE. Returns AcceptWithLogProb(
/// log_w[ite() + 1], engine) and consumes the same engine outputs, but
/// calls ite() only when the three weights leave the decision open:
///  - all three <= kAcceptLogProbFloor: reject without a draw;
///  - all three above it: draw the uniform u, and reject when u >=
///    exp(log_w[i]) for every i, so the eager compare fails whatever the
///    ITE is. The exps are the eager ones, so this rests on no bound of
///    libm's accuracy;
///  - otherwise the eager decision on the true ITE.
template <class Engine, class IteFn>
bool AcceptBiasedLazy(const std::array<double, 3>& log_w, IteFn&& ite,
                      Engine& engine) {
  const auto index = [](double value) {
    return static_cast<size_t>(static_cast<int>(value) + 1);
  };
  int below = 0;
  for (double lw : log_w) below += lw <= kAcceptLogProbFloor ? 1 : 0;
  if (below == 3) return false;
  if (below > 0) return AcceptWithLogProb(log_w[index(ite())], engine);
  for (double lw : log_w) {
    SBRL_CHECK_LE(lw, 1e-12) << "acceptance log-probability above 0";
  }
  const double u = Canonical53(engine);
  if (u >= std::exp(log_w[0]) && u >= std::exp(log_w[1]) &&
      u >= std::exp(log_w[2])) {
    return false;
  }
  return u < std::exp(log_w[index(ite())]);
}

}  // namespace sbrl

#endif  // SBRL_DATA_SAMPLING_H_
