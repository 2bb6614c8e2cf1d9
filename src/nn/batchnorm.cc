#include "nn/batchnorm.h"

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
  // Same running-statistics update as the per-primitive reference: the
  // fused op reports batch mean / biased variance bitwise equal to
  // ColMean's.
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
