#ifndef SBRL_NN_LR_SCHEDULE_H_
#define SBRL_NN_LR_SCHEDULE_H_

#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace sbrl {

/// Exponentially decaying learning-rate schedule, matching the paper's
/// training setup: lr(t) = base * decay_rate^(t / decay_steps).
class ExponentialDecaySchedule {
 public:
  ExponentialDecaySchedule(double base_lr, double decay_rate,
                           int64_t decay_steps)
      : base_lr_(base_lr), decay_rate_(decay_rate),
        decay_steps_(decay_steps) {
    SBRL_CHECK_GT(base_lr, 0.0);
    SBRL_CHECK_GT(decay_rate, 0.0);
    SBRL_CHECK_LE(decay_rate, 1.0);
    SBRL_CHECK_GT(decay_steps, 0);
  }

  /// Learning rate at step `t` (continuous decay), times the recovery
  /// scale. At the default scale of 1.0 the multiplication is exact
  /// (x * 1.0 == x bitwise), so an idle recovery policy cannot perturb
  /// training trajectories.
  double LearningRate(int64_t t) const {
    const double exponent =
        static_cast<double>(t) / static_cast<double>(decay_steps_);
    return scale_ * (base_lr_ * std::pow(decay_rate_, exponent));
  }

  /// Multiplicative recovery backoff applied on top of the decay curve
  /// (1.0 until a divergence rollback shrinks it). This is schedule
  /// state: the trainer checkpoints and restores it so a resumed run
  /// sees the same learning rates as an uninterrupted one.
  double scale() const { return scale_; }
  /// Sets the recovery scale (must be > 0); see scale().
  void set_scale(double scale) {
    SBRL_CHECK_GT(scale, 0.0);
    scale_ = scale;
  }

 private:
  double base_lr_;
  double decay_rate_;
  int64_t decay_steps_;
  double scale_ = 1.0;
};

}  // namespace sbrl

#endif  // SBRL_NN_LR_SCHEDULE_H_
