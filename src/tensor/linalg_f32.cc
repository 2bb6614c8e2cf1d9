#include "tensor/linalg_f32.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace sbrl {

namespace {

// Mirror of the f64 layer's chunking (tensor/linalg.cc): the serial
// cutoff and grain sizes are flop-based and identical for both tiers,
// so tile boundaries never depend on the precision tier either.

/// Rows per parallel chunk so one chunk carries ~SerialCutoff() flops.
int64_t GrainRows(int64_t flops_per_row) {
  return std::max<int64_t>(
      1, SerialCutoff() / std::max<int64_t>(1, flops_per_row));
}

}  // namespace

void MatmulF32Into(const MatrixF32& a, const MatrixF32& b, MatrixF32* out) {
  SBRL_CHECK_EQ(a.cols(), b.rows())
      << "MatmulF32 shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  SBRL_CHECK(out->rows() == a.rows() && out->cols() == b.cols())
      << "MatmulF32 output shape " << out->ShapeString();
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  const auto kernel = ActiveLinalgKernelsF32().matmul_rows;
  if (n * k * m <= SerialCutoff()) {
    kernel(ad, bd, od, k, m, 0, n);
    return;
  }
  ParallelFor(0, n, GrainRows(k * m), [=](int64_t r0, int64_t r1) {
    kernel(ad, bd, od, k, m, r0, r1);
  });
}

MatrixF32 MatmulF32(const MatrixF32& a, const MatrixF32& b) {
  MatrixF32 out(a.rows(), b.cols());
  MatmulF32Into(a, b, &out);
  return out;
}

}  // namespace sbrl
