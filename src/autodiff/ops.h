#ifndef SBRL_AUTODIFF_OPS_H_
#define SBRL_AUTODIFF_OPS_H_

#include <vector>

#include "autodiff/tape.h"
#include "tensor/matrix.h"

namespace sbrl {
/// Differentiable matrix operations recorded on a Tape. Every function
/// returns a new Var whose backward rule is registered with the tape.
/// Shape contracts are CHECKed eagerly so model bugs fail at the op that
/// introduced them, not deep inside Backward.
namespace ops {

/// Activations the fused network-step ops can apply in-pass: ELU on
/// every hidden layer (the paper trains all networks with it) and the
/// identity on linear output layers. ELU's derivative is a function of
/// the POST-activation value alone (elu' = y > 0 ? 1 : y + 1), which is
/// what lets the fused ops drop the pre-activation entirely instead of
/// keeping it alive as a tape node.
enum class ActKind {
  kIdentity,  ///< no nonlinearity (linear output layers)
  kElu,       ///< alpha = 1 exponential linear unit (hidden layers)
};

// ---------------------------------------------------------------------------
// Binary elementwise (shapes must match exactly).
// ---------------------------------------------------------------------------
Var Add(Var a, Var b);
Var Sub(Var a, Var b);
Var Mul(Var a, Var b);

// ---------------------------------------------------------------------------
// Broadcast arithmetic.
// ---------------------------------------------------------------------------
/// (n x d) + (1 x d): adds `row` to every row (bias add).
Var AddRow(Var a, Var row);
/// (n x d) * (n x 1): scales row i of `a` by col(i) (sample weighting).
Var MulCol(Var a, Var col);
/// a / s where s is a differentiable (1 x 1) scalar node.
Var DivScalar(Var a, Var s);

// ---------------------------------------------------------------------------
// Constant-scalar arithmetic (the constant is not differentiated).
// ---------------------------------------------------------------------------
Var AddConst(Var a, double c);
Var Scale(Var a, double c);

// ---------------------------------------------------------------------------
// Unary elementwise.
// ---------------------------------------------------------------------------
Var Square(Var a);
Var Abs(Var a);
/// Numerically stable log(1 + exp(a)).
Var Softplus(Var a);
/// Exponential linear unit with alpha = 1 (the paper's activation),
/// through the per-ISA ELU kernel (LinalgKernels::elu) like every
/// other ELU in the library.
Var Elu(Var a);

// ---------------------------------------------------------------------------
// Shape manipulation.
// ---------------------------------------------------------------------------
Var Transpose(Var a);
/// out.row(i) = a.row(idx[i]). Backward scatter-adds into `a`.
Var GatherRows(Var a, const std::vector<int64_t>& idx);
/// Horizontal concat [a | b].
Var ConcatCols(Var a, Var b);
/// out.row(i) = (t[i] == 1 ? a.row(i) : b.row(i)). Used to assemble the
/// factual head activations Z_p from the two potential-outcome heads.
Var SelectRowsByTreatment(Var a, Var b, const std::vector<int>& t);
/// Inverse assembly of SelectRowsByTreatment for arm-split inputs:
/// `a` holds the rows of the treated units (t[i] == 1) in ascending
/// original-row order, `b` the control rows likewise;
/// out.row(i) = the next row of `a` or `b` according to t[i]. Backward
/// splits the gradient back onto the arms. This is how the fused
/// network step reassembles full-batch tensors after running each
/// outcome head on its own arm only (see OutcomeHeads::Forward).
Var ScatterRowsByTreatment(Var a, Var b, const std::vector<int>& t);
/// Copy of columns [start, start + count) of `a`.
Var SliceCols(Var a, int64_t start, int64_t count);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------
/// Sum of all elements -> (1 x 1).
Var SumAll(Var a);
/// Mean of all elements -> (1 x 1).
Var MeanAll(Var a);
/// (n x d) -> (n x 1) row sums.
Var RowSum(Var a);
/// (n x d) -> (1 x d) column sums.
Var ColSum(Var a);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------
/// Matrix product (n x k) * (k x m).
Var Matmul(Var a, Var b);

/// Fused dense-layer op: x (n x k) * w (k x m) + row-broadcast b (1 x m)
/// in a single tape node with pooled buffers — one node instead of the
/// Matmul + AddRow pair on the hottest path of every forward pass.
Var Affine(Var x, Var w, Var b);

/// Fused network-step op: act(x W + b) in ONE tape node. Forward runs
/// the matmul, bias add, and activation in a single pass; backward
/// reconstructs the activation derivative from the stored OUTPUT (see
/// ActKind), builds d(pre-activation) in one pooled temporary, and
/// emits dx / dW / db directly — the pre-activation never exists as a
/// tape node. Values and gradients are bitwise identical to the
/// reference composition Elu(Affine(x, w, b)): the same
/// kernels accumulate in the same order and the activations share one
/// policy (for ELU, the per-ISA kernel), only the node count changes.
/// dx is skipped when `x` is a constant (first-layer input).
Var AffineAct(Var x, Var w, Var b, ActKind act);

// ---------------------------------------------------------------------------
// Tape-free value kernels of the one inference forward (InferenceNet,
// core/inference_net.h). Each one evaluates EXACTLY the forward
// arithmetic of a tape op — same loops, same per-element formulas, same
// accumulation order — by sharing the fused ops' forward helpers, so a
// prediction is bitwise identical to a tape forward while allocating no
// tape nodes and recording no backward closures. The affine kernels
// take their output buffer from `pool` when one is given (storage reuse
// only).
// ---------------------------------------------------------------------------

/// Value-only AffineAct: act(x W + broadcast b). Bitwise identical to
/// AffineAct(...)'s forward output.
Matrix AffineActValue(const Matrix& x, const Matrix& w, const Matrix& b,
                      ActKind act, MatrixPool* pool = nullptr);

/// Value-only ConcatCols: [a | b] row-wise. Bitwise identical to the
/// ConcatCols op's forward output.
Matrix ConcatColsValue(const Matrix& a, const Matrix& b);

/// a^T * b where a is (p x q) and b is (p x r) -> (q x r), without
/// materializing a^T. Numerically identical to
/// Matmul(Transpose(a), b) — forward and backward accumulate in the
/// same order — but skips the transpose node and its buffer. Hot in the
/// HSIC-RFF weight loss, which builds weighted cross-covariances.
Var MatmulTransA(Var a, Var b);

// ---------------------------------------------------------------------------
// Fused numerical kernels.
// ---------------------------------------------------------------------------
/// Elementwise numerically-stable sigmoid cross-entropy between `logits`
/// and constant `labels` in [0, 1]: max(x,0) - x*y + log(1 + exp(-|x|)).
Var SigmoidCrossEntropyWithLogits(Var logits, const Matrix& labels);

// ---------------------------------------------------------------------------
// Composite helpers (built from primitives; gradients flow through).
// ---------------------------------------------------------------------------
/// Mean of `values` (n x 1) under normalized weights `w` (n x 1):
/// sum(w_i v_i) / sum(w_i).
Var WeightedMean(Var values, Var w);

}  // namespace ops

/// Convenience operators for elementwise arithmetic on same-shaped Vars.
inline Var operator+(Var a, Var b) { return ops::Add(a, b); }
inline Var operator-(Var a, Var b) { return ops::Sub(a, b); }
inline Var operator*(Var a, Var b) { return ops::Mul(a, b); }
inline Var operator*(Var a, double c) { return ops::Scale(a, c); }
inline Var operator*(double c, Var a) { return ops::Scale(a, c); }

}  // namespace sbrl

#endif  // SBRL_AUTODIFF_OPS_H_
