#ifndef SBRL_DATA_SAMPLING_H_
#define SBRL_DATA_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "tensor/random.h"

namespace sbrl {

/// Log of the paper's biased selection probability for one unit:
/// Pr = prod_{X_i in X_V} |rho|^(-10 * D_i),
/// D_i = |ITE - sign(rho) * X_i|   (paper Sec. V-D / V-E).
/// Returned in log space because the product underflows for large |rho|.
/// Requires |rho| > 1 so that Pr <= 1.
double BiasedSelectionLogWeight(double ite,
                                const std::vector<double>& unstable_values,
                                double rho);

/// Weighted sampling of `k` distinct indices with probability
/// proportional to exp(log_weights[i]) (Efraimidis-Spirakis reservoir
/// keys, computed in log space so astronomically small weights still
/// rank correctly).
std::vector<int64_t> WeightedSampleWithoutReplacement(
    const std::vector<double>& log_weights, int64_t k, Rng& rng);

/// Bernoulli acceptance with probability exp(log_prob) (log_prob <= 0):
/// one Canonical53 uniform compared `< exp(log_prob)`. At
/// log_prob <= -700 exp underflows; the unit is rejected without
/// drawing, which is part of the synthetic stream identity.
bool AcceptWithLogProb(double log_prob, Mt19937_64Block& engine);

}  // namespace sbrl

#endif  // SBRL_DATA_SAMPLING_H_
