#ifndef SBRL_NN_BATCHNORM_H_
#define SBRL_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "nn/net_step.h"
#include "nn/parameter.h"

namespace sbrl {

class Dense;

/// Batch normalization over the row (sample) dimension with learned
/// scale/shift. Training mode normalizes by batch statistics and updates
/// exponential running estimates; inference mode uses the running
/// estimates as constants. The paper's `batch norm` hyper-parameter
/// toggles this layer inside each MLP.
class BatchNorm {
 public:
  BatchNorm() = default;
  BatchNorm(const std::string& name, int64_t dim, double momentum = 0.9,
            double eps = 1e-5);

  /// Records the normalization on the binder's tape.
  Var Forward(ParamBinder& binder, Var x, bool training) const;

  /// Fused BatchNorm-into-affine layer step: records
  /// act(batchnorm(dense(x))) as ONE tape node
  /// (ops::AffineBatchNormAct in training, the frozen-statistics
  /// companion at inference) and applies the same running-statistics
  /// update the unfused path performs. `dense` supplies the affine
  /// parameters; its output width must equal dim().
  Var ForwardFusedAffine(ParamBinder& binder, const Dense& dense, Var x,
                         bool training, ops::ActKind act) const;

  void CollectParams(std::vector<Param*>* out);

  /// Appends named references to the running statistics
  /// ("<name>.running_mean" / "<name>.running_var") so the checkpoint
  /// layer can snapshot and restore non-Param training state.
  void CollectStateMatrices(std::vector<NamedStateRef>* out);

  int64_t dim() const { return gamma_.value.cols(); }

 private:
  std::string name_;
  mutable Param gamma_;
  mutable Param beta_;
  // Running statistics are state, not parameters: updated in-place during
  // training forward passes, read as constants at inference.
  mutable Matrix running_mean_;
  mutable Matrix running_var_;
  double momentum_ = 0.9;
  double eps_ = 1e-5;
};

}  // namespace sbrl

#endif  // SBRL_NN_BATCHNORM_H_
