#ifndef SBRL_NN_OPTIMIZER_H_
#define SBRL_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/parameter.h"

namespace sbrl {

/// Adam configuration (defaults follow Kingma & Ba and the paper's
/// TensorFlow setup).
struct AdamConfig {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  /// Decoupled L2 weight decay applied to the value (0 disables). The
  /// paper's R_l2 on head weights maps here.
  double weight_decay = 0.0;
};

/// Adam optimizer over a fixed set of Params. The learning rate is
/// passed per step so schedules stay external.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(std::vector<Param*> params,
                         const AdamConfig& config = AdamConfig());

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
  AdamConfig config_;
  int64_t step_count_ = 0;
};

/// Plain SGD, used by tests as a reference optimizer.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(std::vector<Param*> params);

  void Step(double lr);

 private:
  std::vector<Param*> params_;
};

}  // namespace sbrl

#endif  // SBRL_NN_OPTIMIZER_H_
