#ifndef SBRL_NN_PARAMETER_H_
#define SBRL_NN_PARAMETER_H_

#include <string>
#include <utility>
#include <vector>

#include "autodiff/tape.h"
#include "tensor/matrix.h"

namespace sbrl {

/// A trainable tensor: its value persists across training steps while
/// gradients and Adam moments are maintained alongside. Modules own
/// their Params; optimizers hold raw pointers to them.
struct Param {
  std::string name;
  Matrix value;
  Matrix grad;  // same shape as value; zeroed by the optimizer step

  // Adam moment estimates (lazily sized by the optimizer).
  Matrix adam_m;
  Matrix adam_v;

  Param() = default;
  Param(std::string n, Matrix v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  int64_t size() const { return value.size(); }
};

/// Bridges persistent Params and a per-step Tape. Forward passes bind
/// each Param as a differentiable leaf; after Tape::Backward the binder
/// flushes leaf gradients back into Param::grad for the optimizer.
class ParamBinder {
 public:
  explicit ParamBinder(Tape* tape) : tape_(tape) { SBRL_CHECK(tape != nullptr); }

  /// Creates a leaf carrying `p.value` on the tape and remembers the
  /// association. Binding the same Param again returns the existing
  /// leaf, so all uses share one gradient accumulator.
  Var Bind(Param& p);

  /// Adds every bound leaf's accumulated gradient into its Param::grad.
  /// Call once, after Tape::Backward.
  void FlushGrads();

  /// Appends one (param, gradient copy) pair per bound leaf that
  /// received a gradient, in binding order, WITHOUT touching
  /// Param::grad. This is the sharded-training read path: concurrent
  /// per-shard tapes each hand their gradients out privately, and the
  /// trainer folds them in a fixed tree order — flushing into the
  /// shared Param::grad from worker threads would be racy and
  /// accumulation-order dependent.
  void CollectLeafGrads(std::vector<std::pair<Param*, Matrix>>* out) const;

  Tape* tape() const { return tape_; }

 private:
  Tape* tape_;
  std::vector<std::pair<int, Param*>> bindings_;
};

}  // namespace sbrl

#endif  // SBRL_NN_PARAMETER_H_
