#include "nn/dense.h"

namespace sbrl {

Dense::Dense(const std::string& name, int64_t in_dim, int64_t out_dim,
             Rng& rng)
    : weight_(name + ".W", InitWeights(rng, in_dim, out_dim)),
      bias_(name + ".b", Matrix::Zeros(1, out_dim)) {}

Var Dense::Forward(ParamBinder& binder, Var x) const {
  SBRL_CHECK_EQ(x.cols(), in_dim())
      << "Dense '" << weight_.name << "' expects input dim " << in_dim();
  Var w = binder.Bind(weight_);
  Var b = binder.Bind(bias_);
  return ops::Affine(x, w, b);
}

Var Dense::ForwardElu(ParamBinder& binder, Var x) const {
  SBRL_CHECK_EQ(x.cols(), in_dim())
      << "Dense '" << weight_.name << "' expects input dim " << in_dim();
  Var w = binder.Bind(weight_);
  Var b = binder.Bind(bias_);
  return ops::AffineAct(x, w, b, ops::ActKind::kElu);
}

void Dense::CollectParams(std::vector<Param*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

}  // namespace sbrl
