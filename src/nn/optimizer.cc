#include "nn/optimizer.h"

#include <cmath>

namespace sbrl {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

AdamOptimizer::AdamOptimizer(std::vector<Param*> params, double weight_decay)
    : params_(std::move(params)), weight_decay_(weight_decay) {
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
  const double t = static_cast<double>(step_count_);
  const double bias1 = 1.0 - std::pow(kBeta1, t);
  const double bias2 = 1.0 - std::pow(kBeta2, t);
  double digest = 0.0;
  for (Param* p : params_) {
    for (int64_t i = 0; i < p->size(); ++i) {
      double g = p->grad[i];
      if (weight_decay_ > 0.0) g += weight_decay_ * p->value[i];
      digest += g;
      p->adam_m[i] = kBeta1 * p->adam_m[i] + (1.0 - kBeta1) * g;
      p->adam_v[i] = kBeta2 * p->adam_v[i] + (1.0 - kBeta2) * g * g;
      const double m_hat = p->adam_m[i] / bias1;
      const double v_hat = p->adam_v[i] / bias2;
      p->value[i] -= lr * m_hat / (std::sqrt(v_hat) + kEps);
      p->grad[i] = 0.0;
    }
  }
  return digest;
}

}  // namespace sbrl
