#ifndef SBRL_STATS_KERNELS_H_
#define SBRL_STATS_KERNELS_H_

#include "tensor/matrix.h"

namespace sbrl {

/// RBF (Gaussian) kernel matrix between rows of `a` (n x d) and rows of
/// `b` (m x d): K_ij = exp(-|a_i - b_j|^2 / (2 bandwidth^2)).
Matrix RbfKernel(const Matrix& a, const Matrix& b, double bandwidth);

/// Median-of-pairwise-distances bandwidth heuristic over the rows of
/// `x`. Falls back to 1.0 when all points coincide.
double MedianHeuristicBandwidth(const Matrix& x);

}  // namespace sbrl

#endif  // SBRL_STATS_KERNELS_H_
