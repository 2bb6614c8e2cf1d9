#include "core/backbone.h"

#include "core/cfr.h"
#include "core/dercfr.h"
#include "core/tarnet.h"

namespace sbrl {

OutcomeHeads::OutcomeHeads(const std::string& name, int64_t in_dim,
                           const NetworkConfig& config, Rng& rng)
    : body0_(name + ".h0",
             MakeMlpConfig(in_dim, config.head_layers, config.head_width,
                           config.batchnorm),
             rng),
      body1_(name + ".h1",
             MakeMlpConfig(in_dim, config.head_layers, config.head_width,
                           config.batchnorm),
             rng),
      out0_(name + ".h0.out", config.head_width, 1, rng),
      out1_(name + ".h1.out", config.head_width, 1, rng) {}

OutcomeHeads::Result OutcomeHeads::Forward(ParamBinder& binder, Var rep,
                                           const std::vector<int>& t,
                                           bool training) const {
  std::vector<int64_t> treated, control;
  if (training && !body0_.batchnorm()) {
    for (size_t i = 0; i < t.size(); ++i) {
      (t[i] == 1 ? treated : control).push_back(static_cast<int64_t>(i));
    }
  }
  // Arm-split fast path of the network step: during training every
  // head output is consumed on its FACTUAL rows only (the Select below
  // discards the counterfactual half, so its gradient is identically
  // zero), so each body runs on its own arm — half the head-body
  // compute — and the factual rows are scattered back. Row-wise layers
  // make the per-row values, and the zero rows make the parameter
  // gradients, bitwise identical to the full-batch recording
  // (golden_trace_test holds CFR to the full-batch reference of
  // tests/reference_net.h). Batch norm couples
  // rows through the batch statistics, so that configuration keeps the
  // full-batch path; inference needs both potential outcomes
  // everywhere and always runs full-batch.
  if (!treated.empty() && !control.empty()) {
    Tape* tape = binder.tape();
    Var rep_t = ops::GatherRows(rep, treated);
    Var rep_c = ops::GatherRows(rep, control);
    std::vector<Var> h1 = body1_.ForwardCollect(binder, rep_t, training);
    std::vector<Var> h0 = body0_.ForwardCollect(binder, rep_c, training);
    Result result;
    // The counterfactual halves of y0 / y1 were never computed; zero
    // constants stand in so downstream Select shapes are unchanged.
    Var zero_t = tape->Constant(
        Matrix::Zeros(static_cast<int64_t>(treated.size()), 1));
    Var zero_c = tape->Constant(
        Matrix::Zeros(static_cast<int64_t>(control.size()), 1));
    result.y1 = ops::ScatterRowsByTreatment(
        out1_.Forward(binder, h1.back()), zero_c, t);
    result.y0 = ops::ScatterRowsByTreatment(
        zero_t, out0_.Forward(binder, h0.back()), t);
    result.z_p = ops::ScatterRowsByTreatment(h1.back(), h0.back(), t);
    for (size_t i = 0; i + 1 < h0.size(); ++i) {
      result.hidden.push_back(
          ops::ScatterRowsByTreatment(h1[i], h0[i], t));
    }
    return result;
  }
  // Intentional const_cast-free design: Mlp::ForwardCollect is const.
  std::vector<Var> h0 = body0_.ForwardCollect(binder, rep, training);
  std::vector<Var> h1 = body1_.ForwardCollect(binder, rep, training);
  Result result;
  result.y0 = out0_.Forward(binder, h0.back());
  result.y1 = out1_.Forward(binder, h1.back());
  result.z_p = ops::SelectRowsByTreatment(h1.back(), h0.back(), t);
  for (size_t i = 0; i + 1 < h0.size(); ++i) {
    result.hidden.push_back(ops::SelectRowsByTreatment(h1[i], h0[i], t));
  }
  return result;
}

void OutcomeHeads::CollectParams(std::vector<Param*>* out) {
  body0_.CollectParams(out);
  body1_.CollectParams(out);
  out0_.CollectParams(out);
  out1_.CollectParams(out);
}

void OutcomeHeads::CollectStateMatrices(std::vector<NamedStateRef>* out) {
  body0_.CollectStateMatrices(out);
  body1_.CollectStateMatrices(out);
}

std::vector<Param*> OutcomeHeads::DecayParams() {
  // Weight matrices only (Google-style: biases are not decayed, and the
  // CFR reference code applies R_l2 to head weights).
  std::vector<Param*> all;
  CollectParams(&all);
  std::vector<Param*> weights;
  for (Param* p : all) {
    if (p->value.rows() > 1) weights.push_back(p);  // (in x out) matrices
  }
  return weights;
}

std::unique_ptr<Backbone> CreateBackbone(const EstimatorConfig& config,
                                         int64_t input_dim, Rng& rng) {
  switch (config.backbone) {
    case BackboneKind::kTarnet:
      return std::make_unique<TarnetBackbone>(config, input_dim, rng,
                                              /*alpha_ipm=*/0.0);
    case BackboneKind::kCfr:
      return std::make_unique<CfrBackbone>(config, input_dim, rng);
    case BackboneKind::kDerCfr:
      return std::make_unique<DerCfrBackbone>(config, input_dim, rng);
  }
  SBRL_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace sbrl
