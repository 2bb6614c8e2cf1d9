#ifndef SBRL_TENSOR_MATRIX_F32_H_
#define SBRL_TENSOR_MATRIX_F32_H_

#include <cstdint>
#include <string>

#include "common/aligned.h"
#include "common/check.h"
#include "tensor/matrix.h"

namespace sbrl {

/// Dense row-major matrix of floats — the storage type of the f32
/// precision tier (common/precision.h). Deliberately a separate type
/// rather than a template parameter on Matrix: the autodiff tape, the
/// pools, and every training-path contract stay double-only by
/// construction, and the f32 serving forward (with its kernels in
/// tensor/linalg_f32.h and common/simd.h) opts in explicitly by naming
/// this type.
///
/// Same layout and alignment contract as Matrix: contiguous row-major
/// storage, 64-byte-aligned (IsTensorAligned(data()) always holds).
/// The surface is the subset the f32 paths need — conversions to and
/// from Matrix are the bridge back to the reference tier.
class MatrixF32 {
 public:
  /// Empty 0x0 matrix.
  MatrixF32() : rows_(0), cols_(0) {}

  /// Zero-filled matrix of shape (rows x cols).
  MatrixF32(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0f) {
    SBRL_CHECK_GE(rows, 0);
    SBRL_CHECK_GE(cols, 0);
  }

  /// Constant-filled matrix of shape (rows x cols).
  MatrixF32(int64_t rows, int64_t cols, float fill)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), fill) {
    SBRL_CHECK_GE(rows, 0);
    SBRL_CHECK_GE(cols, 0);
  }

  /// Narrowing conversion from the reference tier: every element cast
  /// float(src(r, c)) (round-to-nearest-even, the only rounding step
  /// an f32 path introduces over its f64 twin for stored values).
  static MatrixF32 FromF64(const Matrix& src);

  /// Number of rows.
  int64_t rows() const { return rows_; }
  /// Number of columns.
  int64_t cols() const { return cols_; }
  /// Total element count (rows * cols).
  int64_t size() const { return rows_ * cols_; }
  /// True when the matrix holds no elements.
  bool empty() const { return size() == 0; }

  /// Element access by (row, column); bounds-DCHECKed.
  float& operator()(int64_t r, int64_t c) {
    SBRL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  /// See the mutable overload.
  float operator()(int64_t r, int64_t c) const {
    SBRL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Flat element access in row-major order.
  float& operator[](int64_t i) {
    SBRL_DCHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }
  /// See the mutable overload.
  float operator[](int64_t i) const {
    SBRL_DCHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }

  /// Raw pointer to the contiguous row-major storage.
  float* data() { return data_.data(); }
  /// See the mutable overload.
  const float* data() const { return data_.data(); }

  /// True when `other` has the same (rows x cols) shape.
  bool same_shape(const MatrixF32& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// "(3x4)" — used in CHECK diagnostics.
  std::string ShapeString() const;

  /// Fills every element with `v`.
  void Fill(float v);

  /// Reshapes in place to (rows x cols) with every element zero,
  /// reusing the backing storage when its capacity suffices.
  void ResetZero(int64_t rows, int64_t cols);

  /// Reshapes to `src`'s shape and narrows its contents in one pass,
  /// reusing the backing storage when possible. The in-place twin of
  /// FromF64.
  void ResetNarrowOf(const Matrix& src);

  /// Elements the backing storage can hold without reallocating
  /// (>= size(); survives shrinking Resets).
  int64_t capacity() const { return static_cast<int64_t>(data_.capacity()); }

  /// Widening conversion back to the reference tier (exact — every
  /// float is representable as a double).
  Matrix ToF64() const;

  /// Widens into `*out` via ResetZero-style storage reuse.
  void WidenInto(Matrix* out) const;

 private:
  int64_t rows_;
  int64_t cols_;
  /// 64-byte-aligned backing storage (see common/aligned.h).
  AlignedVector<float> data_;
};

/// True when shapes match and all elements differ by at most `tol`.
bool AllClose(const MatrixF32& a, const MatrixF32& b, double tol = 1e-5);

}  // namespace sbrl

#endif  // SBRL_TENSOR_MATRIX_F32_H_
