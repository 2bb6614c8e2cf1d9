#include "stats/hsic.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/linalg.h"

namespace sbrl {

static_assert(kRffFeatures == kBlockCrossWidth,
              "the tier passes run the block-cross kernels on RFF blocks");

namespace {

/// Bytes of F per row block of the tier passes: a block the fill just
/// wrote stays in L1 for the cross, means and backward kernels that
/// read it next.
constexpr int64_t kTierBlockBytes = 16 * 1024;
/// Cap on the rows of one block (the backward's stack buffer).
constexpr int64_t kTierMaxBlockRows = 64;

/// Rows per block: about kTierBlockBytes of F, in whole 8-row groups
/// (the wide means-backward kernel takes rows eight at a time).
int64_t TierBlockRows(int64_t fcols) {
  const int64_t row_bytes =
      std::max<int64_t>(1, fcols) * static_cast<int64_t>(sizeof(double));
  return std::clamp<int64_t>((kTierBlockBytes / row_bytes + 7) / 8 * 8, 8,
                             kTierMaxBlockRows);
}

}  // namespace

double HsicRffTierForward(const Matrix& x, const std::vector<int64_t>& cols,
                          const Matrix& wn, RffSlotDraws* draws,
                          HsicRffTier* tier) {
  const int64_t n = x.rows(), k = kRffFeatures;
  const int64_t fcols = static_cast<int64_t>(cols.size()) * k;
  const int64_t num_pairs = static_cast<int64_t>(tier->pairs.size());
  SBRL_CHECK(wn.rows() == n && wn.cols() == 1)
      << "weights " << wn.ShapeString() << " for " << n << " rows";
  SBRL_CHECK(tier->features.rows() == n && tier->features.cols() == fcols)
      << "features " << tier->features.ShapeString();
  SBRL_CHECK(tier->cross.rows() == num_pairs * k && tier->cross.cols() == k)
      << "cross blocks " << tier->cross.ShapeString();
  SBRL_CHECK(tier->means.rows() == 1 && tier->means.cols() == fcols)
      << "means " << tier->means.ShapeString();
  for (const auto& [a, b] : tier->pairs) {
    SBRL_CHECK(a >= 0 && (a + 1) * k <= fcols && b >= 0 &&
               (b + 1) * k <= fcols)
        << "pair (" << a << ", " << b << ") out of range for " << fcols
        << " feature columns";
  }
  const RffStack stack = MakeRffStack(cols, draws);
  const LinalgKernels& kernels = ActiveLinalgKernels();
  const double* wd = wn.data();
  const double* fd = tier->features.data();
  double* cd = tier->cross.data();
  double* md = tier->means.data();
  const std::pair<int64_t, int64_t>* pd = tier->pairs.data();
  const int64_t block_rows = TierBlockRows(fcols);
  for (int64_t r0 = 0; r0 < n; r0 += block_rows) {
    const int64_t r1 = std::min(n, r0 + block_rows);
    const int64_t rows = r1 - r0;
    StackRffRows(x, stack, r0, r1, &tier->features);
    const double* fb = fd + r0 * fcols;
    const double* wb = wd + r0;
    kernels.block_cross_fwd(fb, wb, cd, rows, fcols, pd, 0, num_pairs);
    // means += wb^T fb: the (rows x 1) weights as the transposed factor.
    kernels.matmul_trans_a_rows(wb, fb, md, rows, 1, fcols, 0, 1);
  }

  double acc = 0.0;
  for (int64_t p = 0; p < num_pairs; ++p) {
    // Squared Frobenius norm of E_w[u v^T] - E_w[u] E_w[v]^T.
    const double* ma = md + pd[p].first * k;
    const double* mb = md + pd[p].second * k;
    const double* cblock = cd + p * k * k;
    double sub = 0.0;
    for (int64_t r = 0; r < k; ++r) {
      const double mar = ma[r];
      const double* crow = cblock + r * k;
      for (int64_t c = 0; c < k; ++c) {
        const double v = crow[c] - mar * mb[c];
        sub += v * v;
      }
    }
    acc += sub;
  }
  return acc;
}

void HsicRffTierBackward(const HsicRffTier& tier, double g, Matrix* dwn) {
  const int64_t k = kRffFeatures;
  const Matrix& f = tier.features;
  const int64_t n = f.rows(), fcols = f.cols();
  const int64_t num_pairs = static_cast<int64_t>(tier.pairs.size());
  SBRL_CHECK(dwn->rows() == n && dwn->cols() == 1)
      << "weight gradient " << dwn->ShapeString() << " for " << n << " rows";
  const std::pair<int64_t, int64_t>* pd = tier.pairs.data();

  // d/d cross_p(r, c) = 2 g resid; d/d mu_a(r) = -2 g sum_c resid
  // mu_b(c) and symmetrically for mu_b. The residual is recomputed
  // from the stored forward values.
  Matrix dcross(num_pairs * k, k), dmeans(1, fcols);
  const double* cd = tier.cross.data();
  const double* md = tier.means.data();
  double* dcd = dcross.data();
  double* dmd = dmeans.data();
  for (int64_t p = 0; p < num_pairs; ++p) {
    const int64_t ca = pd[p].first * k;
    const int64_t cb = pd[p].second * k;
    const double* ma = md + ca;
    const double* mb = md + cb;
    const double* cblock = cd + p * k * k;
    for (int64_t r = 0; r < k; ++r) {
      const double mar = ma[r];
      const double* crow = cblock + r * k;
      double dma_acc = 0.0;
      for (int64_t c = 0; c < k; ++c) {
        const double resid = crow[c] - mar * mb[c];
        const double dresid = 2.0 * g * resid;
        dcd[p * k * k + r * k + c] = dresid;
        dma_acc += dresid * mb[c];
        dmd[cb + c] -= dresid * mar;
      }
      dmd[ca + r] -= dma_acc;
    }
  }

  const LinalgKernels& kernels = ActiveLinalgKernels();
  const double* fd = f.data();
  double* od = dwn->data();
  const int64_t block_rows = TierBlockRows(fcols);
  const auto run_rows = [=](int64_t r0, int64_t r1) {
    double cross_term[kTierMaxBlockRows];
    for (int64_t b0 = r0; b0 < r1; b0 += block_rows) {
      const int64_t rows = std::min(r1 - b0, block_rows);
      const double* fb = fd + b0 * fcols;
      double* ob = od + b0;
      // Means term F_i . d means into the zeroed output ...
      kernels.matmul_trans_b_rows(fb, dmd, ob, fcols, 1, 0, rows);
      // ... then the cross term, summed in its own zeroed buffer.
      std::fill(cross_term, cross_term + rows, 0.0);
      kernels.block_cross_grad_dw(dcd, fb, cross_term, fcols, pd, num_pairs,
                                  0, rows);
      for (int64_t i = 0; i < rows; ++i) ob[i] += cross_term[i];
    }
  };
  const int64_t flops_per_row = num_pairs * k * k + fcols;
  if (n * flops_per_row <= SerialCutoff()) {
    run_rows(0, n);
    return;
  }
  ParallelFor(0, n, std::max<int64_t>(1, SerialCutoff() / flops_per_row),
              run_rows);
}

}  // namespace sbrl
