#ifndef SBRL_CORE_INFERENCE_NET_H_
#define SBRL_CORE_INFERENCE_NET_H_

#include <array>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "common/statusor.h"
#include "core/backbone.h"
#include "core/config.h"
#include "tensor/matrix.h"

namespace sbrl {

/// One named tensor of a fitted network (a trainable parameter), keyed
/// by the module naming scheme ("rep.l0.W", "heads.h1.out.b", ...).
struct NamedMatrix {
  /// Unique module-scoped tensor name.
  std::string name;
  /// The tensor value.
  Matrix value;
};

/// Copies every parameter of `backbone` (CollectParams order) into
/// `*weights`. The one capture of a live backbone, shared by serving
/// export and InferenceNet.
void CaptureTensors(Backbone& backbone, std::vector<NamedMatrix>* weights);

/// Everything an inference forward needs beyond the tensors: the
/// architecture the names resolve against and how head outputs map to
/// potential outcomes.
struct InferenceSpec {
  /// Backbone architecture (DeR-CFR reads [C, A]; the others "rep").
  BackboneKind backbone = BackboneKind::kTarnet;
  /// Layer counts and widths (hidden layers are ELU, output units
  /// linear).
  NetworkConfig network;
  /// Covariate dimension every input row must have.
  int64_t input_dim = 0;
  /// True: head outputs are logits, mapped through a sigmoid. False:
  /// standardized values, mapped through y * y_std + y_mean.
  bool binary_outcome = true;
  /// Training-set outcome mean (continuous outcomes only).
  double y_mean = 0.0;
  /// Training-set outcome stddev (continuous outcomes only).
  double y_std = 1.0;
};

/// One affine + activation layer of an InferenceNet.
struct AffineLayer {
  Matrix w;  ///< (in x out) weight
  Matrix b;  ///< (1 x out) bias
  /// Activation applied after the affine.
  ops::ActKind act = ops::ActKind::kIdentity;
};

/// The one inference forward of the built-in backbones: an immutable
/// value type holding owned copies of every tensor prediction reads,
/// run with the tape-free value kernel ops::AffineActValue.
/// HteEstimator, ShardedTrainer and ServingModel all predict through
/// it. Each output row depends only on its input row, and the kernels
/// are worker-count invariant, so results do not depend on batching or
/// thread count. Thread-safe
/// without synchronization; callers pin the ISA level.
class InferenceNet {
 public:
  using Layer = AffineLayer;         ///< one layer
  using Stack = std::vector<Layer>;  ///< layers applied in order

  /// Resolves the Mlp tensor names of `spec`'s architecture
  /// ("<prefix>.l<i>.W", "<prefix>.l<i>.b", ...) against `weights`,
  /// shape-checking each. Returns
  /// InvalidArgument on a missing tensor or a shape mismatch. Tensors
  /// prediction does not read (DeR-CFR's I stack, t-head, ...) are
  /// ignored.
  static StatusOr<InferenceNet> Build(const InferenceSpec& spec,
                                      std::vector<NamedMatrix> weights);

  /// Build over CaptureTensors(backbone); CHECK-fails when `backbone`
  /// does not match `spec`.
  static InferenceNet FromBackbone(Backbone& backbone,
                                   const InferenceSpec& spec);

  /// The balanced representation of `x`: each rep stack's output,
  /// concatenated ([C, A] for DeR-CFR) — the input of both heads.
  /// Layer buffers come from and return to `pool` when one is given
  /// (one caller thread per pool).
  Matrix Representation(const Matrix& x, MatrixPool* pool = nullptr) const;

  /// Raw head outputs over Representation(x), (n x 2): column 0 =
  /// control head, column 1 = treated head; logits for binary
  /// outcomes, standardized values otherwise.
  Matrix Heads(const Matrix& x, MatrixPool* pool = nullptr) const;

  /// Maps raw head outputs to potential outcomes elementwise: the
  /// literal sigmoid 1 / (1 + exp(-z)) for binary outcomes,
  /// z * y_std + y_mean otherwise. The one such mapping in the library.
  Matrix ToOutcomes(Matrix heads) const;

  /// The architecture and outcome scale this net was built for.
  const InferenceSpec& spec() const { return spec_; }

 private:
  /// Runs `stack` over `x` with the value kernels.
  Matrix Run(const Stack& stack, const Matrix& x, MatrixPool* pool) const;

  InferenceSpec spec_;
  /// Representation stacks: "rep", or "C" then "A" for DeR-CFR.
  std::vector<Stack> reps_;
  /// Both heads (0 = control, 1 = treated): the body layers followed
  /// by the linear output unit.
  std::array<Stack, 2> heads_;
};

}  // namespace sbrl

#endif  // SBRL_CORE_INFERENCE_NET_H_
