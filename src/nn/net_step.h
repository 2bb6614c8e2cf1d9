#ifndef SBRL_NN_NET_STEP_H_
#define SBRL_NN_NET_STEP_H_

#include "autodiff/ops.h"

namespace sbrl {

// The network step records each MLP layer (Dense -> optional
// BatchNorm -> activation) as ONE tape node: ops::AffineAct, or
// ops::AffineBatchNormAct when batch norm is on. The pre-activation is
// consumed in-pass instead of living on the tape, and the fused
// backward emits dx / dW / db from pooled temporaries. The
// per-primitive chain (Dense::Forward, BatchNorm::Forward,
// ApplyActivation) is the reference the tests hold it to: without
// batch norm values AND gradients are bitwise equal (the same kernels
// run in the same order); with batch norm forward values are bitwise
// equal and the closed-form backward agrees to rounding error (see
// tests/reference_net.h). Either recording is bitwise invariant to the
// worker-thread count.

/// Short name of ops::ActKind, the one activation enum of MLP layers,
/// the fused network-step ops and the serving forward. The paper trains
/// all networks with ELU; kIdentity is the linear activation.
using Activation = ops::ActKind;

/// Applies `act` to `x` on the tape as one unfused activation node.
Var ApplyActivation(Var x, ops::ActKind act);

}  // namespace sbrl

#endif  // SBRL_NN_NET_STEP_H_
