#ifndef SBRL_NN_OPTIMIZER_H_
#define SBRL_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/parameter.h"

namespace sbrl {

/// Adam optimizer over a fixed set of Params, with Kingma & Ba's
/// beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 (the paper's TensorFlow
/// setup). The learning rate is passed per step so schedules stay
/// external.
class AdamOptimizer {
 public:
  /// `weight_decay` is a decoupled L2 penalty added to each gradient
  /// as weight_decay * value (0 disables); the paper's R_l2 on head
  /// weights maps here.
  explicit AdamOptimizer(std::vector<Param*> params,
                         double weight_decay = 0.0);

  /// Applies one Adam update from each Param's accumulated grad, then
  /// zeroes the grads. Returns the sum of every raw gradient element
  /// consumed by this step — the training health monitor's fused
  /// non-finite digest: any NaN or Inf gradient propagates into the
  /// sum, and accumulating it inside the existing update loop costs
  /// one add per element instead of a second pass (see
  /// docs/ARCHITECTURE.md "Failure handling & recovery").
  double Step(double lr);

  int64_t step_count() const { return step_count_; }
  /// Restores the bias-correction position (checkpoint resume /
  /// divergence rollback); `count` must be >= 0.
  void set_step_count(int64_t count) {
    SBRL_CHECK_GE(count, 0);
    step_count_ = count;
  }
  const std::vector<Param*>& params() const { return params_; }

 private:
  std::vector<Param*> params_;
  double weight_decay_;
  int64_t step_count_ = 0;
};

}  // namespace sbrl

#endif  // SBRL_NN_OPTIMIZER_H_
