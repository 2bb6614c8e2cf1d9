#ifndef SBRL_NN_NET_STEP_H_
#define SBRL_NN_NET_STEP_H_

#include "autodiff/ops.h"

namespace sbrl {

/// How the per-iteration network step records the head forward/backward
/// chain (Dense -> optional BatchNorm -> activation) on the tape.
/// Mirrors BatchedHsicMode / CosineMode: a fast production path plus a
/// reference path selectable per call / per config.
///
/// kFused records each layer as ONE tape node (ops::AffineAct, or
/// ops::AffineBatchNormAct when batch norm is on): the pre-activation
/// is consumed in-pass instead of living on the tape, and the fused
/// backward emits dx / dW / db from pooled temporaries. Without batch
/// norm, values AND gradients are bitwise identical to kReference (the
/// same kernels run in the same order); with batch norm, forward values
/// are bitwise identical and the closed-form backward agrees with the
/// reference chain to rounding error (see tests/golden_trace_test.cc).
///
/// kReference keeps the seed formulation — one tape node per primitive
/// (Affine, ColMean, Sqrt, ..., activation) — as the formulation the
/// golden-trace tests pin down. Both modes are bitwise invariant to the
/// worker-thread count.
enum class NetStepMode {
  kFused,      ///< one fused tape node per layer (default)
  kReference,  ///< per-primitive tape ops — the reference formulation
};

/// Short name of ops::ActKind, the one activation enum of MLP layers,
/// the fused network-step ops and the serving forward. The paper trains
/// all networks with ELU; kIdentity is the linear activation.
using Activation = ops::ActKind;

/// Applies `act` to `x` on the tape (reference path: one UnaryOp node).
Var ApplyActivation(Var x, ops::ActKind act);

}  // namespace sbrl

#endif  // SBRL_NN_NET_STEP_H_
