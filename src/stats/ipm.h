#ifndef SBRL_STATS_IPM_H_
#define SBRL_STATS_IPM_H_

#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Evaluation-side Integral Probability Metrics between the row
/// distributions of `a` (n x d) and `b` (m x d). The Balancing
/// Regularizer's training IPM (paper Eqs. 3-4, the weighted linear MMD)
/// is computed on the tape by WeightedIpmLoss
/// (core/balancing_regularizer.h).

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
