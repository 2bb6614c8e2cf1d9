#include "tensor/linalg.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace sbrl {

namespace {

constexpr int64_t kTransposeTile = 32;

// The arithmetic inner loops (matmul row tiles and the specialized
// block-cross kernels) live in per-ISA translation units behind the
// LinalgKernels table (tensor/kernels.h): every public entry point
// below fetches ActiveLinalgKernels() once and hands disjoint output
// tiles to the resolved kernels. Shape checks, serial cutoffs, and
// ParallelFor chunking stay here, identical for every ISA level, so
// tile/block boundaries never depend on the resolved vector width.

/// Rows per parallel chunk so one chunk carries ~SerialCutoff() flops.
int64_t GrainRows(int64_t flops_per_row) {
  return std::max<int64_t>(
      1, SerialCutoff() / std::max<int64_t>(1, flops_per_row));
}

}  // namespace

void MatmulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SBRL_CHECK_EQ(a.cols(), b.rows())
      << "Matmul shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  SBRL_CHECK(out->rows() == a.rows() && out->cols() == b.cols())
      << "Matmul output shape " << out->ShapeString();
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->data();
  // Small products skip thread dispatch entirely (no std::function is
  // even constructed): the HSIC weight loss issues tens of thousands of
  // tiny matmuls per training run.
  const auto kernel = ActiveLinalgKernels().matmul_rows;
  if (n * k * m <= SerialCutoff()) {
    kernel(ad, bd, od, k, m, 0, n);
    return;
  }
  ParallelFor(0, n, GrainRows(k * m), [=](int64_t r0, int64_t r1) {
    kernel(ad, bd, od, k, m, r0, r1);
  });
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatmulInto(a, b, &out);
  return out;
}

Matrix MatmulReference(const Matrix& a, const Matrix& b) {
  SBRL_CHECK_EQ(a.cols(), b.rows())
      << "Matmul shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  Matrix out(n, m);
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const double* arow = ad + i * k;
    double* orow = od + i * m;
    for (int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = bd + p * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

void MatmulTransAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SBRL_CHECK_EQ(a.rows(), b.rows())
      << "MatmulTransA shape mismatch " << a.ShapeString() << "^T * "
      << b.ShapeString();
  SBRL_CHECK(out->rows() == a.cols() && out->cols() == b.cols())
      << "MatmulTransA output shape " << out->ShapeString();
  const int64_t k = a.rows(), n = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->data();
  const auto kernel = ActiveLinalgKernels().matmul_trans_a_rows;
  if (n * k * m <= SerialCutoff()) {
    kernel(ad, bd, od, k, n, m, 0, n);
    return;
  }
  // Threads own disjoint ranges of output rows (columns of A), whole
  // 4-row register tiles of the wide kernels where the rows allow.
  const int64_t grain = (GrainRows(k * m) + 3) / 4 * 4;
  ParallelFor(0, n, grain, [=](int64_t r0, int64_t r1) {
    kernel(ad, bd, od, k, n, m, r0, r1);
  });
}

Matrix MatmulTransA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  MatmulTransAInto(a, b, &out);
  return out;
}

void MatmulTransBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SBRL_CHECK_EQ(a.cols(), b.cols())
      << "MatmulTransB shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString() << "^T";
  SBRL_CHECK(out->rows() == a.rows() && out->cols() == b.rows())
      << "MatmulTransB output shape " << out->ShapeString();
  const int64_t n = a.rows(), k = a.cols(), m = b.rows();
  if (n == 0 || k == 0 || m == 0) return;
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->data();
  const auto kernel = ActiveLinalgKernels().matmul_trans_b_rows;
  if (n * k * m <= SerialCutoff()) {
    kernel(ad, bd, od, k, m, 0, n);
    return;
  }
  ParallelFor(0, n, GrainRows(k * m), [=](int64_t r0, int64_t r1) {
    kernel(ad, bd, od, k, m, r0, r1);
  });
}

Matrix MatmulTransB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  MatmulTransBInto(a, b, &out);
  return out;
}

Matrix Transpose(const Matrix& a) {
  const int64_t n = a.rows(), m = a.cols();
  Matrix out(m, n);
  const double* ad = a.data();
  double* od = out.data();
  if (n * m <= SerialCutoff()) {
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < m; ++c) od[c * n + r] = ad[r * m + c];
    }
    return out;
  }
  // Tiled over (row, col) blocks so both the read and write streams stay
  // within cache lines; parallel over output row blocks.
  ParallelFor(0, m, GrainRows(n), [=](int64_t c0, int64_t c1) {
    for (int64_t cb = c0; cb < c1; cb += kTransposeTile) {
      const int64_t ce = std::min(cb + kTransposeTile, c1);
      for (int64_t rb = 0; rb < n; rb += kTransposeTile) {
        const int64_t re = std::min(rb + kTransposeTile, n);
        for (int64_t c = cb; c < ce; ++c) {
          double* orow = od + c * n;
          for (int64_t r = rb; r < re; ++r) orow[r] = ad[r * m + c];
        }
      }
    }
  });
  return out;
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) acc += a(r, c);
    out(r, 0) = acc;
  }
  return out;
}

Matrix ColSum(const Matrix& a) {
  Matrix out(1, a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) out(0, c) += a(r, c);
  }
  return out;
}

Matrix ColMean(const Matrix& a) {
  SBRL_CHECK_GT(a.rows(), 0);
  Matrix out = ColSum(a);
  out *= 1.0 / static_cast<double>(a.rows());
  return out;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  SBRL_CHECK_EQ(row.rows(), 1);
  SBRL_CHECK_EQ(row.cols(), a.cols());
  Matrix out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c) + row(0, c);
  }
  return out;
}

Matrix MulColBroadcast(const Matrix& a, const Matrix& col) {
  SBRL_CHECK_EQ(col.cols(), 1);
  SBRL_CHECK_EQ(col.rows(), a.rows());
  Matrix out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const double s = col(r, 0);
    for (int64_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c) * s;
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& idx) {
  const int64_t m = a.cols();
  Matrix out(static_cast<int64_t>(idx.size()), m);
  const size_t row_bytes = static_cast<size_t>(m) * sizeof(double);
  const double* ad = a.data();
  double* od = out.data();
  for (size_t i = 0; i < idx.size(); ++i) {
    SBRL_CHECK(idx[i] >= 0 && idx[i] < a.rows())
        << "gather index " << idx[i] << " out of range " << a.rows();
    if (row_bytes == 0) continue;  // still validates every index
    std::memcpy(od + static_cast<int64_t>(i) * m, ad + idx[i] * m, row_bytes);
  }
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  SBRL_CHECK_EQ(a.rows(), b.rows());
  const int64_t ac = a.cols(), bc = b.cols();
  Matrix out(a.rows(), ac + bc);
  const size_t a_bytes = static_cast<size_t>(ac) * sizeof(double);
  const size_t b_bytes = static_cast<size_t>(bc) * sizeof(double);
  double* od = out.data();
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::memcpy(od + r * (ac + bc), a.data() + r * ac, a_bytes);
    std::memcpy(od + r * (ac + bc) + ac, b.data() + r * bc, b_bytes);
  }
  return out;
}

double Dot(const Matrix& a, const Matrix& b) {
  SBRL_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double StdDev(const Matrix& a) {
  SBRL_CHECK_GT(a.size(), 0);
  const double mu = a.Mean();
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

}  // namespace sbrl
