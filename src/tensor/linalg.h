#ifndef SBRL_TENSOR_LINALG_H_
#define SBRL_TENSOR_LINALG_H_

#include <functional>
#include <vector>

#include "tensor/matrix.h"

namespace sbrl {

/// Dense matrix product a(n x k) * b(k x m) -> (n x m). Cache-blocked
/// and multi-threaded (see ParallelFor); this is the hot kernel of the
/// whole library. Every output element accumulates over k in ascending
/// order, so the result is bitwise independent of tiling and worker
/// count and matches the naive i-k-j reference.
Matrix Matmul(const Matrix& a, const Matrix& b);

/// a^T * b where a is (k x n): (n x m) result without materializing a^T.
Matrix MatmulTransA(const Matrix& a, const Matrix& b);

/// a * b^T where b is (m x k): (n x m) result without materializing b^T.
Matrix MatmulTransB(const Matrix& a, const Matrix& b);

/// Accumulating in-place variants for pooled output buffers: the product
/// is ADDED into `*out`, which must already have the result shape.
/// Callers that want `out = a * b` pass a zeroed buffer (Tape/MatrixPool
/// buffers arrive zeroed).
void MatmulInto(const Matrix& a, const Matrix& b, Matrix* out);
/// Accumulating in-place a^T * b (see MatmulInto for the contract).
void MatmulTransAInto(const Matrix& a, const Matrix& b, Matrix* out);
/// Accumulating in-place a * b^T (see MatmulInto for the contract).
void MatmulTransBInto(const Matrix& a, const Matrix& b, Matrix* out);

/// The seed repo's single-threaded triple-loop matmul, kept as the
/// ground-truth reference for the tiled kernels' randomized tests and
/// the before/after microbenchmark. Not for production use.
Matrix MatmulReference(const Matrix& a, const Matrix& b);

/// Out-of-place transpose (tiled, parallel over output row blocks).
Matrix Transpose(const Matrix& a);

/// Row-wise sum: (n x d) -> (n x 1).
Matrix RowSum(const Matrix& a);
/// Column-wise sum: (n x d) -> (1 x d).
Matrix ColSum(const Matrix& a);
/// Row-wise mean: (n x d) -> (n x 1).
Matrix RowMean(const Matrix& a);
/// Column-wise mean: (n x d) -> (1 x d).
Matrix ColMean(const Matrix& a);

/// Elementwise Hadamard product (shapes must match).
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Applies `f` to each element, returning a new matrix. Large inputs
/// are mapped in parallel; `f` must be pure (no shared mutable state).
Matrix Map(const Matrix& a, const std::function<double(double)>& f);

/// Broadcast add of a (1 x d) row vector to every row of (n x d).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);
/// Broadcast multiply of every column of (n x d) by an (n x 1) column.
Matrix MulColBroadcast(const Matrix& a, const Matrix& col);

/// Gathers rows by index: out.row(i) = a.row(idx[i]).
Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& idx);

/// Scatter-add of rows: out.row(idx[i]) += a.row(i), with `rows` output
/// rows. The adjoint of GatherRows.
Matrix ScatterAddRows(const Matrix& a, const std::vector<int64_t>& idx,
                      int64_t rows);

/// Horizontal concatenation [a | b] (row counts must match).
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Vertical concatenation [a ; b] (column counts must match).
Matrix ConcatRows(const Matrix& a, const Matrix& b);

/// Pairwise squared Euclidean distances between rows of a (n x d) and
/// rows of b (m x d): (n x m). Parallel over output rows.
Matrix PairwiseSquaredDistances(const Matrix& a, const Matrix& b);

/// Dot product of two equal-shaped matrices viewed as flat vectors.
double Dot(const Matrix& a, const Matrix& b);

/// Standard deviation over all elements (population, i.e. divides by N).
double StdDev(const Matrix& a);

}  // namespace sbrl

#endif  // SBRL_TENSOR_LINALG_H_
