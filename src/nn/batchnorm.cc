#include "nn/batchnorm.h"

#include <cmath>

#include "nn/dense.h"
#include "tensor/linalg.h"

namespace sbrl {

BatchNorm::BatchNorm(const std::string& name, int64_t dim, double momentum,
                     double eps)
    : name_(name),
      gamma_(name + ".gamma", Matrix::Ones(1, dim)),
      beta_(name + ".beta", Matrix::Zeros(1, dim)),
      running_mean_(Matrix::Zeros(1, dim)),
      running_var_(Matrix::Ones(1, dim)),
      momentum_(momentum),
      eps_(eps) {}

Var BatchNorm::Forward(ParamBinder& binder, Var x, bool training) const {
  SBRL_CHECK_EQ(x.cols(), dim());
  Tape* t = binder.tape();
  Var gamma = binder.Bind(gamma_);
  Var beta = binder.Bind(beta_);
  if (training) {
    SBRL_CHECK_GT(x.rows(), 1) << "batch norm needs more than one sample";
    Var mu = ops::ColMean(x);                              // (1 x d)
    Var centered = ops::AddRow(x, ops::Neg(mu));           // x - mu
    Var var = ops::ColMean(ops::Square(centered));         // (1 x d)
    Var inv_std = ops::Reciprocal(ops::Sqrt(ops::AddConst(var, eps_)));
    Var normalized = ops::MulRow(centered, inv_std);
    // Update running stats outside the graph.
    running_mean_ = running_mean_ * momentum_ + mu.value() * (1.0 - momentum_);
    running_var_ = running_var_ * momentum_ + var.value() * (1.0 - momentum_);
    return ops::AddRow(ops::MulRow(normalized, gamma), beta);
  }
  // Inference: running statistics are constants.
  Matrix inv_std(1, dim());
  for (int64_t c = 0; c < dim(); ++c) {
    inv_std(0, c) = 1.0 / std::sqrt(running_var_(0, c) + eps_);
  }
  Var mu = t->Constant(running_mean_ * -1.0);
  Var centered = ops::AddRow(x, mu);
  Var normalized = ops::MulRow(centered, t->Constant(inv_std));
  return ops::AddRow(ops::MulRow(normalized, gamma), beta);
}

Var BatchNorm::ForwardFusedAffine(ParamBinder& binder, const Dense& dense,
                                  Var x, bool training) const {
  SBRL_CHECK_EQ(dense.out_dim(), dim());
  const ops::ActKind act = ops::ActKind::kElu;
  if (!training) {
    Tape* t = binder.tape();
    return t->Constant(ops::AffineBatchNormInferActValue(
        x.value(), dense.weight().value, dense.bias().value, gamma_.value,
        beta_.value, running_mean_, running_var_, eps_, act, t->pool()));
  }
  Var w, b;
  dense.BindParams(binder, &w, &b);
  Var gamma = binder.Bind(gamma_);
  Var beta = binder.Bind(beta_);
  Matrix batch_mean, batch_var;
  Var out = ops::AffineBatchNormAct(x, w, b, gamma, beta, eps_, act,
                                    &batch_mean, &batch_var);
  // Same running-statistics update as the unfused path: the fused op
  // reports batch mean / biased variance bitwise equal to ColMean's.
  running_mean_ =
      running_mean_ * momentum_ + batch_mean * (1.0 - momentum_);
  running_var_ = running_var_ * momentum_ + batch_var * (1.0 - momentum_);
  return out;
}

void BatchNorm::CollectParams(std::vector<Param*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
}

void BatchNorm::CollectStateMatrices(std::vector<NamedStateRef>* out) {
  out->push_back({name_ + ".running_mean", &running_mean_});
  out->push_back({name_ + ".running_var", &running_var_});
}

}  // namespace sbrl
