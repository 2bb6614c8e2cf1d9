#ifndef SBRL_NN_INITIALIZER_H_
#define SBRL_NN_INITIALIZER_H_

#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Draws an (fan_in x fan_out) Glorot-normal weight matrix: zero-mean
/// normal with stddev sqrt(2 / (fan_in + fan_out)).
Matrix InitWeights(Rng& rng, int64_t fan_in, int64_t fan_out);

}  // namespace sbrl

#endif  // SBRL_NN_INITIALIZER_H_
