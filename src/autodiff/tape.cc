#include "autodiff/tape.h"

#include <utility>

namespace sbrl {

Tape::~Tape() {
  if (pool_ == nullptr) return;
  for (Node& node : nodes_) {
    pool_->Release(std::move(node.value));
    pool_->Release(std::move(node.grad));
  }
}

Matrix Tape::NewZero(int64_t rows, int64_t cols) {
  if (pool_ != nullptr) return pool_->AcquireZero(rows, cols);
  return Matrix(rows, cols);
}

Matrix Tape::NewCopy(const Matrix& src) {
  if (pool_ != nullptr) return pool_->AcquireCopy(src);
  return src;
}

void Tape::Recycle(Matrix&& m) {
  if (pool_ != nullptr) pool_->Release(std::move(m));
}

const Matrix& Var::value() const {
  SBRL_CHECK(valid());
  return tape_->value(id_);
}

const Matrix& Var::grad() const {
  SBRL_CHECK(valid());
  return tape_->grad(id_);
}

Var Tape::Constant(Matrix value) {
  Node node;
  node.value = std::move(value);
  node.requires_grad = false;
  nodes_.push_back(std::move(node));
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

Var Tape::Leaf(Matrix value) {
  Node node;
  node.value = std::move(value);
  node.requires_grad = true;
  nodes_.push_back(std::move(node));
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

Var Tape::MakeNode(Matrix value, const std::vector<Var>& parents,
                   BackwardFn backward) {
  bool any_grad = false;
  for (const Var& p : parents) {
    SBRL_CHECK(p.tape() == this) << "op mixes nodes from different tapes";
    if (requires_grad(p.id())) any_grad = true;
  }
  Node node;
  node.value = std::move(value);
  node.requires_grad = any_grad;
  if (any_grad) node.backward = std::move(backward);
  nodes_.push_back(std::move(node));
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

void Tape::AccumulateGrad(int id, const Matrix& delta) {
  SBRL_DCHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  Node& node = nodes_[static_cast<size_t>(id)];
  if (!node.requires_grad) return;
  SBRL_CHECK(delta.rows() == node.value.rows() &&
             delta.cols() == node.value.cols())
      << "gradient shape " << delta.ShapeString() << " vs value "
      << node.value.ShapeString();
  if (node.grad.empty()) {
    node.grad = NewCopy(delta);
  } else {
    node.grad += delta;
  }
}

void Tape::AccumulateGrad(int id, Matrix&& delta) {
  SBRL_DCHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  Node& node = nodes_[static_cast<size_t>(id)];
  if (!node.requires_grad) {
    Recycle(std::move(delta));
    return;
  }
  SBRL_CHECK(delta.rows() == node.value.rows() &&
             delta.cols() == node.value.cols())
      << "gradient shape " << delta.ShapeString() << " vs value "
      << node.value.ShapeString();
  if (node.grad.empty()) {
    node.grad = std::move(delta);
  } else {
    node.grad += delta;
    Recycle(std::move(delta));
  }
}

void Tape::Backward(const Var& loss) {
  SBRL_CHECK(loss.tape() == this);
  SBRL_CHECK(!backward_done_) << "Backward may run once per tape";
  backward_done_ = true;
  SBRL_CHECK(loss.value().is_scalar())
      << "Backward requires a scalar loss, got "
      << loss.value().ShapeString();
  AccumulateGrad(loss.id(), Matrix::Ones(1, 1));
  for (int id = loss.id(); id >= 0; --id) {
    Node& node = nodes_[static_cast<size_t>(id)];
    if (!node.requires_grad || node.grad.empty() || !node.backward) continue;
    node.backward(this);
  }
}

}  // namespace sbrl
