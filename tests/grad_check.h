// Central-difference gradient checks, the numerical oracle the test
// suites hold every autodiff backward rule against.

#ifndef SBRL_TESTS_GRAD_CHECK_H_
#define SBRL_TESTS_GRAD_CHECK_H_

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace reference {

/// Central-difference numerical gradient of a scalar-valued function at
/// `x`: grad[i] = (f(x + eps e_i) - f(x - eps e_i)) / (2 eps).
inline Matrix NumericalGradient(const std::function<double(const Matrix&)>& f,
                                const Matrix& x, double eps = 1e-5) {
  Matrix grad(x.rows(), x.cols());
  Matrix probe = x;
  for (int64_t i = 0; i < x.size(); ++i) {
    const double saved = probe[i];
    probe[i] = saved + eps;
    const double hi = f(probe);
    probe[i] = saved - eps;
    const double lo = f(probe);
    probe[i] = saved;
    grad[i] = (hi - lo) / (2.0 * eps);
  }
  return grad;
}

/// Maximum absolute elementwise difference between an analytic gradient
/// and the numerical gradient of `f` at `x`.
inline double MaxGradientError(const std::function<double(const Matrix&)>& f,
                               const Matrix& x, const Matrix& analytic_grad,
                               double eps = 1e-5) {
  const Matrix numeric = NumericalGradient(f, x, eps);
  SBRL_CHECK(numeric.same_shape(analytic_grad));
  double worst = 0.0;
  for (int64_t i = 0; i < numeric.size(); ++i) {
    worst = std::max(worst, std::abs(numeric[i] - analytic_grad[i]));
  }
  return worst;
}

}  // namespace reference
}  // namespace sbrl

#endif  // SBRL_TESTS_GRAD_CHECK_H_
