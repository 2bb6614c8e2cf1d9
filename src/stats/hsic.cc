#include "stats/hsic.h"

#include <cmath>
#include <utility>
#include <vector>

#include "stats/feature_pairs.h"
#include "stats/kernels.h"
#include "stats/weighted.h"
#include "tensor/linalg.h"

namespace sbrl {

namespace {

/// Centers a kernel matrix: H K H with H = I - 11^T / n.
Matrix CenterKernel(const Matrix& k) {
  const int64_t n = k.rows();
  Matrix row_means = ColMean(k);   // (1 x n)
  Matrix col_means = RowMean(k);   // (n x 1)
  const double grand = k.Mean();
  Matrix out(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out(i, j) = k(i, j) - row_means(0, j) - col_means(i, 0) + grand;
    }
  }
  return out;
}

}  // namespace

double Hsic(const Matrix& a, const Matrix& b, double bandwidth_a,
            double bandwidth_b) {
  SBRL_CHECK_EQ(a.rows(), b.rows());
  SBRL_CHECK_GT(a.rows(), 1);
  const int64_t n = a.rows();
  Matrix ka = CenterKernel(RbfKernel(a, a, bandwidth_a));
  Matrix kb = RbfKernel(b, b, bandwidth_b);
  // tr(Ka_centered * Kb) equals tr(H Ka H Kb); elementwise product trace.
  double trace = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) trace += ka(i, j) * kb(j, i);
  }
  return trace / static_cast<double>(n * n);
}

double Hsic(const Matrix& a, const Matrix& b) {
  return Hsic(a, b, MedianHeuristicBandwidth(a), MedianHeuristicBandwidth(b));
}

double HsicRff(const Matrix& a, const Matrix& b, int64_t num_features,
               Rng& rng) {
  Matrix uniform = Matrix::Ones(a.rows(), 1);
  return WeightedHsicRff(a, b, uniform, num_features, rng);
}

double WeightedHsicRff(const Matrix& a, const Matrix& b, const Matrix& w,
                       int64_t num_features, Rng& rng) {
  SBRL_CHECK_EQ(a.cols(), 1);
  SBRL_CHECK_EQ(b.cols(), 1);
  SBRL_CHECK_EQ(a.rows(), b.rows());
  RffProjection proj_a = SampleRff(rng, 1, num_features);
  RffProjection proj_b = SampleRff(rng, 1, num_features);
  Matrix u = ApplyRff(proj_a, a);  // (n x k)
  Matrix v = ApplyRff(proj_b, b);  // (n x k)
  Matrix cov = WeightedCrossCovariance(u, v, w);
  double frob2 = 0.0;
  for (int64_t i = 0; i < cov.size(); ++i) frob2 += cov[i] * cov[i];
  return frob2;
}

double PairwiseWeightedHsicRff(const Matrix& x, const Matrix& w,
                               int64_t num_features, Rng& rng,
                               int64_t max_pairs) {
  const int64_t d = x.cols();
  const int64_t k = num_features;
  SBRL_CHECK_GT(d, 1);
  SBRL_CHECK_EQ(x.rows(), w.rows());
  FeaturePairSelection sel = SelectFeaturePairs(d, max_pairs, rng);

  // The statistic mirrors the batched block-diagonal formulation of
  // HsicRffDecorrelationLoss, rng discipline included: the pair subset
  // comes out of `rng`, then one epoch seed, and each used column's
  // projection is the slot draw keyed by (epoch, k, column index) —
  // features the pair set actually uses are stacked and every pair's
  // cross-covariance block comes out of ONE fused
  // BlockPairWeightedCrossInto dispatch instead of a per-pair matmul
  // loop.
  CompactPairBlocks blocks = CompactUsedColumns(d, sel.pairs);
  const std::vector<std::pair<int64_t, int64_t>>& block_pairs =
      blocks.block_pairs;
  RffSlotDraws draws{rng.engine()(), {}};
  Matrix stacked(x.rows(),
                 static_cast<int64_t>(blocks.used_cols.size()) * k);
  StackRffColumns(x, blocks.used_cols, k, &draws, &stacked);
  Matrix wn = NormalizeWeights(w);
  Matrix means = MatmulTransA(wn, stacked);  // (1 x n_used*k)

  const int64_t num_pairs = static_cast<int64_t>(block_pairs.size());
  Matrix cross(num_pairs * k, k);
  BlockPairWeightedCrossInto(stacked, wn, k, block_pairs, &cross);

  double acc = 0.0;
  for (int64_t p = 0; p < num_pairs; ++p) {
    // Squared Frobenius norm of E_w[u v^T] - E_w[u] E_w[v]^T.
    const double* ea = means.data() + block_pairs[static_cast<size_t>(p)].first * k;
    const double* eb = means.data() + block_pairs[static_cast<size_t>(p)].second * k;
    const double* cblock = cross.data() + p * k * k;
    double frob2 = 0.0;
    for (int64_t i = 0; i < k; ++i) {
      const double* crow = cblock + i * k;
      for (int64_t j = 0; j < k; ++j) {
        const double v = crow[j] - ea[i] * eb[j];
        frob2 += v * v;
      }
    }
    acc += frob2;
  }
  // Rescale a sampled subset to estimate the full-pair sum.
  return acc * sel.Rescale();
}

}  // namespace sbrl
