#include "core/tarnet.h"

#include "core/balancing_regularizer.h"

namespace sbrl {

TarnetBackbone::TarnetBackbone(const EstimatorConfig& config,
                               int64_t input_dim, Rng& rng, double alpha_ipm)
    : input_dim_(input_dim),
      alpha_ipm_(alpha_ipm),
      rep_net_("rep",
               MakeMlpConfig(input_dim, config.network.rep_layers,
                             config.network.rep_width),
               rng),
      heads_("heads", config.network.rep_width, config.network, rng) {}

BackboneForward TarnetBackbone::Forward(ParamBinder& binder, const Matrix& x,
                                        const std::vector<int>& t, Var w,
                                        bool training) {
  SBRL_CHECK_EQ(x.cols(), input_dim_);
  Tape* tape = binder.tape();
  Var input = tape->Constant(x);
  std::vector<Var> rep_layers = rep_net_.ForwardCollect(binder, input);
  Var rep = rep_layers.back();

  OutcomeHeads::Result heads = heads_.Forward(binder, rep, t, training);

  BackboneForward out;
  out.y0 = heads.y0;
  out.y1 = heads.y1;
  out.rep = rep;
  out.z_p = heads.z_p;
  // Z_o: every rep layer before the balanced one + head hiddens before
  // the last.
  for (size_t i = 0; i + 1 < rep_layers.size(); ++i) {
    out.z_other.push_back(rep_layers[i]);
  }
  for (const Var& h : heads.hidden) out.z_other.push_back(h);

  if (training && alpha_ipm_ > 0.0) {
    out.aux_loss = ops::Scale(WeightedIpmLoss(rep, w, t), alpha_ipm_);
  } else {
    out.aux_loss = tape->Constant(Matrix::Zeros(1, 1));
  }
  return out;
}

void TarnetBackbone::CollectParams(std::vector<Param*>* out) {
  rep_net_.CollectParams(out);
  heads_.CollectParams(out);
}

std::vector<Param*> TarnetBackbone::DecayParams() {
  return heads_.DecayParams();
}

}  // namespace sbrl
