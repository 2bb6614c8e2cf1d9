// Per-primitive reference formulation of the network step, kept as a
// test oracle for the fused layer recording the library trains with.
//
// Every layer here is recorded one tape node per primitive:
// Dense::Forward (Affine), then BatchNorm::Forward (ColMean, Sqrt, ...)
// when batch norm is on, then ApplyActivation. The library's Mlp records
// the same layer as ONE fused node (ops::AffineAct /
// ops::AffineBatchNormAct). Without batch norm the two recordings run
// the same kernels in the same order, so values and gradients are
// bitwise equal; with batch norm forward values are bitwise equal and
// the fused closed-form backward agrees to rounding error.
//
// ReferenceCfr is CfrBackbone rebuilt on that chain: same parameter
// names, same rng draw order, same parameter / state / decay-list
// order, full-batch outcome heads (no arm split), so a fit through it
// is the reference trajectory golden_trace_test compares the
// production trace against.

#ifndef SBRL_TESTS_REFERENCE_NET_H_
#define SBRL_TESTS_REFERENCE_NET_H_

#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "core/backbone.h"
#include "core/balancing_regularizer.h"
#include "core/config.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/mlp.h"
#include "tensor/random.h"

namespace sbrl {
namespace reference {

/// Mlp's layer stack recorded per primitive. Construction draws the
/// initial weights in Mlp's order under Mlp's names, so a ReferenceMlp
/// and an Mlp built from equal rng states hold equal parameters.
class ReferenceMlp {
 public:
  ReferenceMlp(const std::string& name, const MlpConfig& config, Rng& rng)
      : config_(config) {
    int64_t in = config.input_dim;
    for (size_t i = 0; i < config.hidden.size(); ++i) {
      const int64_t out = config.hidden[i];
      layers_.emplace_back(name + ".l" + std::to_string(i), in, out, rng);
      if (config.batchnorm) {
        norms_.emplace_back(name + ".bn" + std::to_string(i), out);
      }
      in = out;
    }
  }

  /// Every post-activation layer output, like Mlp::ForwardCollect.
  std::vector<Var> ForwardCollect(ParamBinder& binder, Var x,
                                  bool training) const {
    std::vector<Var> outputs;
    Var h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
      h = layers_[i].Forward(binder, h);
      if (config_.batchnorm) h = norms_[i].Forward(binder, h, training);
      h = ApplyActivation(h, ops::ActKind::kElu);
      outputs.push_back(h);
    }
    if (outputs.empty()) outputs.push_back(x);
    return outputs;
  }

  /// Mlp::CollectParams order: every layer's (W, b), then every
  /// BatchNorm's (gamma, beta).
  void CollectParams(std::vector<Param*>* out) {
    for (Dense& layer : layers_) layer.CollectParams(out);
    for (BatchNorm& norm : norms_) norm.CollectParams(out);
  }

  void CollectStateMatrices(std::vector<NamedStateRef>* out) {
    for (BatchNorm& norm : norms_) norm.CollectStateMatrices(out);
  }

 private:
  MlpConfig config_;
  std::vector<Dense> layers_;
  std::vector<BatchNorm> norms_;
};

/// CfrBackbone (TARNet + weighted IPM at config.cfr.alpha_ipm) on the
/// per-primitive chain.
class ReferenceCfr : public Backbone {
 public:
  ReferenceCfr(const EstimatorConfig& config, int64_t input_dim, Rng& rng)
      : input_dim_(input_dim),
        network_(config.network),
        cfr_(config.cfr),
        // Declaration order below is TarnetBackbone's draw order: the
        // representation, then both head bodies, then both output units.
        rep_("rep",
             MakeMlpConfig(input_dim, config.network.rep_layers,
                           config.network.rep_width, config.network.batchnorm),
             rng),
        h0_("heads.h0",
            MakeMlpConfig(config.network.rep_width, config.network.head_layers,
                          config.network.head_width, config.network.batchnorm),
            rng),
        h1_("heads.h1",
            MakeMlpConfig(config.network.rep_width, config.network.head_layers,
                          config.network.head_width, config.network.batchnorm),
            rng),
        out0_("heads.h0.out", config.network.head_width, 1, rng),
        out1_("heads.h1.out", config.network.head_width, 1, rng) {}

  BackboneForward Forward(ParamBinder& binder, const Matrix& x,
                          const std::vector<int>& t, Var w,
                          bool training) override {
    Tape* tape = binder.tape();
    std::vector<Var> rep_layers =
        rep_.ForwardCollect(binder, tape->Constant(x), training);
    Var rep = rep_layers.back();
    if (network_.rep_normalization) rep = ops::NormalizeRows(rep);
    // Both heads run on every row; the factual half is selected after.
    std::vector<Var> h0 = h0_.ForwardCollect(binder, rep, training);
    std::vector<Var> h1 = h1_.ForwardCollect(binder, rep, training);
    BackboneForward out;
    out.y0 = out0_.Forward(binder, h0.back());
    out.y1 = out1_.Forward(binder, h1.back());
    out.rep = rep;
    out.z_p = ops::SelectRowsByTreatment(h1.back(), h0.back(), t);
    for (size_t i = 0; i + 1 < rep_layers.size(); ++i) {
      out.z_other.push_back(rep_layers[i]);
    }
    for (size_t i = 0; i + 1 < h0.size(); ++i) {
      out.z_other.push_back(ops::SelectRowsByTreatment(h1[i], h0[i], t));
    }
    if (training && cfr_.alpha_ipm > 0.0) {
      out.aux_loss = ops::Scale(WeightedIpmLoss(rep, w, t), cfr_.alpha_ipm);
    } else {
      out.aux_loss = tape->Constant(Matrix::Zeros(1, 1));
    }
    return out;
  }

  /// TarnetBackbone's order: representation, head bodies, output units.
  void CollectParams(std::vector<Param*>* out) override {
    rep_.CollectParams(out);
    h0_.CollectParams(out);
    h1_.CollectParams(out);
    out0_.CollectParams(out);
    out1_.CollectParams(out);
  }

  void CollectStateMatrices(std::vector<NamedStateRef>* out) override {
    rep_.CollectStateMatrices(out);
    h0_.CollectStateMatrices(out);
    h1_.CollectStateMatrices(out);
  }

  /// OutcomeHeads::DecayParams: the heads' weight matrices.
  std::vector<Param*> DecayParams() override {
    std::vector<Param*> heads;
    h0_.CollectParams(&heads);
    h1_.CollectParams(&heads);
    out0_.CollectParams(&heads);
    out1_.CollectParams(&heads);
    std::vector<Param*> weights;
    for (Param* p : heads) {
      if (p->value.rows() > 1) weights.push_back(p);
    }
    return weights;
  }

  int64_t input_dim() const override { return input_dim_; }

 private:
  int64_t input_dim_;
  NetworkConfig network_;
  CfrConfig cfr_;
  ReferenceMlp rep_;
  ReferenceMlp h0_;
  ReferenceMlp h1_;
  Dense out0_;
  Dense out1_;
};

}  // namespace reference
}  // namespace sbrl

#endif  // SBRL_TESTS_REFERENCE_NET_H_
