#include "stats/metrics.h"

#include <cmath>

#include "common/check.h"

namespace sbrl {

double Pehe(const std::vector<double>& ite_hat,
            const std::vector<double>& ite_true) {
  SBRL_CHECK_EQ(ite_hat.size(), ite_true.size());
  SBRL_CHECK(!ite_hat.empty());
  double acc = 0.0;
  for (size_t i = 0; i < ite_hat.size(); ++i) {
    const double d = ite_hat[i] - ite_true[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(ite_hat.size()));
}

double AteError(const std::vector<double>& ite_hat,
                const std::vector<double>& ite_true) {
  SBRL_CHECK_EQ(ite_hat.size(), ite_true.size());
  SBRL_CHECK(!ite_hat.empty());
  double sum_hat = 0.0, sum_true = 0.0;
  for (size_t i = 0; i < ite_hat.size(); ++i) {
    sum_hat += ite_hat[i];
    sum_true += ite_true[i];
  }
  const double n = static_cast<double>(ite_hat.size());
  return std::abs(sum_true / n - sum_hat / n);
}

ConfusionCounts Confusion(const std::vector<double>& probs,
                          const std::vector<double>& labels,
                          double threshold) {
  SBRL_CHECK_EQ(probs.size(), labels.size());
  ConfusionCounts counts;
  for (size_t i = 0; i < probs.size(); ++i) {
    const bool pred = probs[i] >= threshold;
    const bool truth = labels[i] >= 0.5;
    if (pred && truth) ++counts.tp;
    else if (pred && !truth) ++counts.fp;
    else if (!pred && truth) ++counts.fn;
    else ++counts.tn;
  }
  return counts;
}

double F1Score(const std::vector<double>& probs,
               const std::vector<double>& labels, double threshold) {
  const ConfusionCounts c = Confusion(probs, labels, threshold);
  const double denom = static_cast<double>(2 * c.tp + c.fp + c.fn);
  if (denom == 0.0) return 0.0;
  return 2.0 * static_cast<double>(c.tp) / denom;
}

EnvAggregate AggregateOverEnvironments(const std::vector<double>& values) {
  SBRL_CHECK(!values.empty());
  EnvAggregate agg;
  for (double v : values) agg.mean += v;
  agg.mean /= static_cast<double>(values.size());
  for (double v : values) {
    const double d = v - agg.mean;
    agg.variance += d * d;
  }
  agg.variance /= static_cast<double>(values.size());
  agg.std_dev = std::sqrt(agg.variance);
  return agg;
}

}  // namespace sbrl
