#include "stats/weighted.h"

#include "tensor/linalg.h"

namespace sbrl {

Matrix NormalizeWeights(const Matrix& w) {
  SBRL_CHECK_EQ(w.cols(), 1);
  SBRL_CHECK_GT(w.rows(), 0);
  double total = 0.0;
  for (int64_t i = 0; i < w.rows(); ++i) {
    SBRL_CHECK_GE(w(i, 0), 0.0) << "negative sample weight at row " << i;
    total += w(i, 0);
  }
  SBRL_CHECK_GT(total, 0.0) << "all sample weights are zero";
  return w * (1.0 / total);
}

Matrix WeightedCrossCovariance(const Matrix& u, const Matrix& v,
                               const Matrix& w) {
  SBRL_CHECK_EQ(u.rows(), v.rows());
  SBRL_CHECK_EQ(u.rows(), w.rows());
  Matrix wn = NormalizeWeights(w);
  // E_w[u_i v_j] = U^T diag(wn) V
  Matrix uw = MulColBroadcast(u, wn);       // (n x ku) rows scaled
  Matrix e_uv = MatmulTransA(uw, v);        // (ku x kv)
  Matrix e_u = MatmulTransA(wn, u);         // (1 x ku)
  Matrix e_v = MatmulTransA(wn, v);         // (1 x kv)
  for (int64_t i = 0; i < e_uv.rows(); ++i) {
    for (int64_t j = 0; j < e_uv.cols(); ++j) {
      e_uv(i, j) -= e_u(0, i) * e_v(0, j);
    }
  }
  return e_uv;
}

}  // namespace sbrl
