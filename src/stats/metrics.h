#ifndef SBRL_STATS_METRICS_H_
#define SBRL_STATS_METRICS_H_

#include <vector>

#include "tensor/matrix.h"

namespace sbrl {

/// PEHE, the precision in estimation of heterogeneous effect (Hill
/// 2011): sqrt(mean((ite_hat_i - ite_true_i)^2)). The paper's primary
/// individual-level error metric.
double Pehe(const std::vector<double>& ite_hat,
            const std::vector<double>& ite_true);

/// Absolute ATE bias |mean(ite_true) - mean(ite_hat)| — the paper's
/// eps_ATE population-level metric.
double AteError(const std::vector<double>& ite_hat,
                const std::vector<double>& ite_true);

/// Binary confusion counts at `threshold` on predicted probabilities.
struct ConfusionCounts {
  int64_t tp = 0;  ///< true positives
  int64_t fp = 0;  ///< false positives
  int64_t tn = 0;  ///< true negatives
  int64_t fn = 0;  ///< false negatives
};

/// Tallies the confusion counts of thresholded probabilities against
/// binary labels.
ConfusionCounts Confusion(const std::vector<double>& probs,
                          const std::vector<double>& labels,
                          double threshold = 0.5);

/// F1 = 2 P R / (P + R); 0 when undefined (no predicted or true
/// positives).
double F1Score(const std::vector<double>& probs,
               const std::vector<double>& labels, double threshold = 0.5);

/// Mean and stability statistic over per-environment values. The paper
/// defines stability as the *variance* around the mean
/// (F_std = 1/|E| sum (F_e - mean)^2); `std_dev` reports its square
/// root for readability, `variance` the paper's raw statistic.
struct EnvAggregate {
  double mean = 0.0;      ///< mean over environments
  double std_dev = 0.0;   ///< sqrt of `variance`, for readability
  double variance = 0.0;  ///< the paper's stability statistic F_std
};

/// Aggregates one metric's per-environment values into the paper's
/// mean / stability summary.
EnvAggregate AggregateOverEnvironments(const std::vector<double>& values);

}  // namespace sbrl

#endif  // SBRL_STATS_METRICS_H_
