#include "nn/optimizer.h"

#include <cmath>

namespace sbrl {

AdamOptimizer::AdamOptimizer(std::vector<Param*> params,
                             const AdamConfig& config)
    : params_(std::move(params)), config_(config) {
  for (Param* p : params_) {
    SBRL_CHECK(p != nullptr);
    if (p->adam_m.empty()) {
      p->adam_m = Matrix::Zeros(p->value.rows(), p->value.cols());
      p->adam_v = Matrix::Zeros(p->value.rows(), p->value.cols());
    }
    if (p->grad.empty()) {
      p->grad = Matrix::Zeros(p->value.rows(), p->value.cols());
    }
  }
}

double AdamOptimizer::Step(double lr) {
  ++step_count_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(step_count_));
  double digest = 0.0;
  for (Param* p : params_) {
    for (int64_t i = 0; i < p->size(); ++i) {
      double g = p->grad[i];
      if (config_.weight_decay > 0.0) g += config_.weight_decay * p->value[i];
      digest += g;
      p->adam_m[i] = b1 * p->adam_m[i] + (1.0 - b1) * g;
      p->adam_v[i] = b2 * p->adam_v[i] + (1.0 - b2) * g * g;
      const double m_hat = p->adam_m[i] / bias1;
      const double v_hat = p->adam_v[i] / bias2;
      p->value[i] -= lr * m_hat / (std::sqrt(v_hat) + config_.eps);
      p->grad[i] = 0.0;
    }
  }
  return digest;
}

}  // namespace sbrl
