#include "core/balancing_regularizer.h"

namespace sbrl {

namespace {

/// Normalized weighted mean of rows: sum_i w_i rep_i / sum_i w_i -> (1 x d).
Var WeightedRowMean(Var rep, Var w) {
  Var weighted = ops::MulCol(rep, w);
  Var total = ops::SumAll(w);
  return ops::DivScalar(ops::ColSum(weighted), total);
}

}  // namespace

Var WeightedIpmLoss(Var rep, Var w, const std::vector<int>& t) {
  SBRL_CHECK_EQ(static_cast<int64_t>(t.size()), rep.rows());
  SBRL_CHECK_EQ(w.rows(), rep.rows());
  SBRL_CHECK_EQ(w.cols(), 1);
  std::vector<int64_t> treated, control;
  for (size_t i = 0; i < t.size(); ++i) {
    (t[i] == 1 ? treated : control).push_back(static_cast<int64_t>(i));
  }
  SBRL_CHECK(!treated.empty() && !control.empty())
      << "weighted IPM needs both treatment arms";
  Var rep_t = ops::GatherRows(rep, treated);
  Var rep_c = ops::GatherRows(rep, control);
  Var w_t = ops::GatherRows(w, treated);
  Var w_c = ops::GatherRows(w, control);
  return WeightedIpmLossSplit(rep_t, w_t, rep_c, w_c);
}

Var WeightedIpmLossSplit(Var rep_t, Var w_t, Var rep_c, Var w_c) {
  SBRL_CHECK_EQ(rep_t.cols(), rep_c.cols());
  SBRL_CHECK_EQ(w_t.rows(), rep_t.rows());
  SBRL_CHECK_EQ(w_c.rows(), rep_c.rows());
  Var diff = ops::Sub(WeightedRowMean(rep_t, w_t),
                      WeightedRowMean(rep_c, w_c));
  return ops::SumAll(ops::Square(diff));
}

}  // namespace sbrl
