#ifndef SBRL_NN_NET_STEP_H_
#define SBRL_NN_NET_STEP_H_

#include "autodiff/ops.h"

namespace sbrl {

// The network step records each MLP layer (Dense -> optional
// BatchNorm -> ELU, the paper's activation on every hidden layer) as
// ONE tape node: ops::AffineAct, or ops::AffineBatchNormAct when batch
// norm is on. The pre-activation is consumed in-pass instead of living
// on the tape, and the fused backward emits dx / dW / db from pooled
// temporaries. The per-primitive chain (Dense::Forward,
// BatchNorm::Forward, ApplyActivation) is the reference the tests hold
// it to: without batch norm values AND gradients are bitwise equal (the
// same kernels run in the same order); with batch norm forward values
// are bitwise equal and the closed-form backward agrees to rounding
// error (see tests/reference_net.h). Either recording is bitwise
// invariant to the worker-thread count. Linear output layers
// (ops::ActKind::kIdentity) are plain Dense::Forward affines.

/// Applies `act` to `x` on the tape as one unfused activation node
/// (kIdentity records nothing).
Var ApplyActivation(Var x, ops::ActKind act);

}  // namespace sbrl

#endif  // SBRL_NN_NET_STEP_H_
