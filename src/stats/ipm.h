#ifndef SBRL_STATS_IPM_H_
#define SBRL_STATS_IPM_H_

#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Integral Probability Metric family used by the Balancing Regularizer
/// (paper Eq. 3-4). All functions measure the distance between the row
/// distributions of `a` (n x d) and `b` (m x d).

/// Squared linear MMD: ||mean(a) - mean(b)||^2 (the "mmd2_lin" of the
/// CFR reference implementation).
double LinearMmd2(const Matrix& a, const Matrix& b);

/// Weighted squared linear MMD under per-group sample weights
/// (normalized internally).
double WeightedLinearMmd2(const Matrix& a, const Matrix& wa, const Matrix& b,
                          const Matrix& wb);

/// Sliced 1-Wasserstein distance: expectation over `num_projections`
/// random directions of the 1-D W1 distance between projected samples.
/// Non-differentiable; used as an evaluation-side IPM.
double SlicedWasserstein1(const Matrix& a, const Matrix& b,
                          int64_t num_projections, Rng& rng);

/// Max-sliced 1-Wasserstein: the maximum projected W1 over the d
/// coordinate axes plus `num_projections` random directions. Far more
/// sensitive than the mean-sliced variant when only a few coordinates
/// shift (e.g. the paper's unstable block V), which is what the OOD
/// level detector needs.
double MaxSlicedWasserstein1(const Matrix& a, const Matrix& b,
                             int64_t num_projections, Rng& rng);

}  // namespace sbrl

#endif  // SBRL_STATS_IPM_H_
