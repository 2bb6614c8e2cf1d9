#include "nn/initializer.h"

#include <cmath>

namespace sbrl {

Matrix InitWeights(Rng& rng, int64_t fan_in, int64_t fan_out) {
  SBRL_CHECK_GT(fan_in, 0);
  SBRL_CHECK_GT(fan_out, 0);
  const double stddev =
      std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
  return rng.Randn(fan_in, fan_out, 0.0, stddev);
}

}  // namespace sbrl
