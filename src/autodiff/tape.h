#ifndef SBRL_AUTODIFF_TAPE_H_
#define SBRL_AUTODIFF_TAPE_H_

#include <functional>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/pool.h"

namespace sbrl {

class Tape;

/// Lightweight handle to a node on a Tape. Vars are cheap to copy; the
/// value and gradient live in the tape's arena.
class Var {
 public:
  Var() : tape_(nullptr), id_(-1) {}
  Var(Tape* tape, int id) : tape_(tape), id_(id) {}

  /// Forward value of this node.
  const Matrix& value() const;
  /// Accumulated gradient (empty until Backward reaches this node).
  const Matrix& grad() const;

  Tape* tape() const { return tape_; }
  int id() const { return id_; }
  bool valid() const { return tape_ != nullptr && id_ >= 0; }

  int64_t rows() const { return value().rows(); }
  int64_t cols() const { return value().cols(); }

 private:
  Tape* tape_;
  int id_;
};

/// Reverse-mode automatic differentiation tape.
///
/// A Tape records a DAG of matrix operations as they execute; calling
/// Backward(loss) on a scalar node walks the DAG in reverse creation
/// order and accumulates gradients into every node that requires them.
/// One tape is built per training step and then discarded — the paper's
/// alternating optimization (Algorithm 1) builds one tape for the
/// network-parameter step and another for the sample-weight step.
///
/// Constructed with a MatrixPool, the tape recycles every node value,
/// gradient, and op temporary through the pool: on destruction all
/// buffers return to the pool, so the next iteration's tape (same
/// shapes) rebuilds without heap allocation. Ops acquire output and
/// temporary buffers through NewZero / NewCopy / Recycle.
class Tape {
 public:
  using BackwardFn = std::function<void(Tape*)>;

  Tape() = default;
  explicit Tape(MatrixPool* pool) : pool_(pool) {}
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Node that never receives a gradient (data, labels, frozen values).
  Var Constant(Matrix value);

  /// Differentiable leaf (parameters, sample weights). After Backward,
  /// read the gradient via `v.grad()`.
  Var Leaf(Matrix value);

  /// Records an interior node. `backward` pulls this node's gradient and
  /// pushes contributions into its parents via AccumulateGrad; it is
  /// dropped when no parent requires gradients.
  Var MakeNode(Matrix value, const std::vector<Var>& parents,
               BackwardFn backward);

  /// Runs reverse-mode accumulation from scalar node `loss` (1x1).
  /// May be called once per tape.
  void Backward(const Var& loss);

  /// Adds `delta` into the gradient buffer of node `id`.
  void AccumulateGrad(int id, const Matrix& delta);

  /// Move-in variant: consumes `delta`, recycling its buffer when the
  /// node already holds a gradient. Backward rules build their
  /// contribution in a NewZero buffer and hand it off through this.
  void AccumulateGrad(int id, Matrix&& delta);

  /// Zeroed (rows x cols) buffer from the pool (plain allocation when
  /// the tape has no pool).
  Matrix NewZero(int64_t rows, int64_t cols);
  /// Pooled copy of `src`.
  Matrix NewCopy(const Matrix& src);
  /// Hands a finished temporary back to the pool.
  void Recycle(Matrix&& m);

  const Matrix& value(int id) const {
    SBRL_DCHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)].value;
  }
  const Matrix& grad(int id) const {
    SBRL_DCHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)].grad;
  }
  bool requires_grad(int id) const {
    SBRL_DCHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)].requires_grad;
  }

  /// True if node `id` received any gradient during Backward.
  bool has_grad(int id) const {
    SBRL_DCHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return !nodes_[static_cast<size_t>(id)].grad.empty();
  }

  /// Number of recorded nodes.
  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;  // empty until a gradient is accumulated
    bool requires_grad = false;
    BackwardFn backward;  // empty for leaves and constants
  };

  std::vector<Node> nodes_;
  MatrixPool* pool_ = nullptr;  // not owned; may be null
  bool backward_done_ = false;
};

}  // namespace sbrl

#endif  // SBRL_AUTODIFF_TAPE_H_
