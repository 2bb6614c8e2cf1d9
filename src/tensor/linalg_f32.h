#ifndef SBRL_TENSOR_LINALG_F32_H_
#define SBRL_TENSOR_LINALG_F32_H_

#include "tensor/matrix_f32.h"

namespace sbrl {

/// f32-tier dense matmul entry points (see common/precision.h). Same
/// shape checks, serial cutoffs, and ParallelFor chunking as the f64
/// entry points in tensor/linalg.h — the arithmetic runs through the
/// LinalgKernelsF32 per-ISA tables, so results are bitwise identical
/// across ISA levels (tensor/kernels.h). Used by the f32 serving path
/// and benchmarks only; training and the streamed passes stay f64.

/// Dense product a(n x k) * b(k x m) -> (n x m) in f32 storage.
MatrixF32 MatmulF32(const MatrixF32& a, const MatrixF32& b);

/// Accumulating in-place variant: the product is ADDED into `*out`
/// (same contract as the f64 *Into family).
void MatmulF32Into(const MatrixF32& a, const MatrixF32& b, MatrixF32* out);

}  // namespace sbrl

#endif  // SBRL_TENSOR_LINALG_F32_H_
