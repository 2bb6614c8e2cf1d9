#include "core/dercfr.h"

#include "core/balancing_regularizer.h"

namespace sbrl {

namespace {

/// Normalized first-layer feature importance: p_j ~ sum_k |W1[j, k]|.
Var FeatureImportance(ParamBinder& binder, Mlp& net) {
  Var w1 = binder.Bind(net.mutable_layer(0).weight());
  Var mass = ops::RowSum(ops::Abs(w1));  // (input_dim x 1)
  return ops::DivScalar(mass, ops::AddConst(ops::SumAll(mass), 1e-12));
}

}  // namespace

DerCfrBackbone::DerCfrBackbone(const EstimatorConfig& config,
                               int64_t input_dim, Rng& rng)
    : input_dim_(input_dim),
      config_(config.dercfr),
      i_net_("I",
             MakeMlpConfig(input_dim, config.network.rep_layers,
                           config.network.rep_width),
             rng),
      c_net_("C",
             MakeMlpConfig(input_dim, config.network.rep_layers,
                           config.network.rep_width),
             rng),
      a_net_("A",
             MakeMlpConfig(input_dim, config.network.rep_layers,
                           config.network.rep_width),
             rng),
      heads_("heads", 2 * config.network.rep_width, config.network, rng),
      t_head_("t_head", 2 * config.network.rep_width, 1, rng),
      weight_head_t_("omega_t", config.network.rep_width, 1, rng),
      weight_head_c_("omega_c", config.network.rep_width, 1, rng) {}

void DerCfrBackbone::SetOutcomes(const Matrix& y) {
  SBRL_CHECK_EQ(y.cols(), 1);
  y_ = y;
}

BackboneForward DerCfrBackbone::Forward(ParamBinder& binder, const Matrix& x,
                                        const std::vector<int>& t, Var w,
                                        bool training) {
  SBRL_CHECK_EQ(x.cols(), input_dim_);
  Tape* tape = binder.tape();
  Var input = tape->Constant(x);

  std::vector<Var> i_layers = i_net_.ForwardCollect(binder, input);
  std::vector<Var> c_layers = c_net_.ForwardCollect(binder, input);
  std::vector<Var> a_layers = a_net_.ForwardCollect(binder, input);
  Var rep_i = i_layers.back();
  Var rep_c = c_layers.back();
  Var rep_a = a_layers.back();

  Var rep_ca = ops::ConcatCols(rep_c, rep_a);  // outcome representation
  OutcomeHeads::Result heads = heads_.Forward(binder, rep_ca, t, training);

  BackboneForward out;
  out.y0 = heads.y0;
  out.y1 = heads.y1;
  out.rep = rep_ca;
  out.z_p = heads.z_p;
  for (const Var& h : i_layers) out.z_other.push_back(h);
  for (size_t i = 0; i + 1 < c_layers.size(); ++i) {
    out.z_other.push_back(c_layers[i]);
  }
  for (size_t i = 0; i + 1 < a_layers.size(); ++i) {
    out.z_other.push_back(a_layers[i]);
  }
  for (const Var& h : heads.hidden) out.z_other.push_back(h);

  Var aux = tape->Constant(Matrix::Zeros(1, 1));
  if (training) {
    const int64_t n = x.rows();
    std::vector<int64_t> treated, control;
    for (size_t i = 0; i < t.size(); ++i) {
      (t[i] == 1 ? treated : control).push_back(static_cast<int64_t>(i));
    }
    SBRL_CHECK(!treated.empty() && !control.empty());

    // (1) mu: adjustment balance — A must not separate the arms.
    if (config_.adjustment_balance > 0.0) {
      aux = ops::Add(aux, ops::Scale(WeightedIpmLoss(rep_a, w, t),
                                     config_.adjustment_balance));
    }

    // (2) beta: instrument-outcome independence within each arm, via a
    // covariance penalty against the centered factual outcome.
    if (config_.instrument_indep > 0.0) {
      SBRL_CHECK_EQ(y_.rows(), n)
          << "DeR-CFR needs SetOutcomes before training forward";
      for (const auto* arm : {&treated, &control}) {
        const auto& idx = *arm;
        Matrix y_arm(static_cast<int64_t>(idx.size()), 1);
        double mean = 0.0;
        for (size_t i = 0; i < idx.size(); ++i) mean += y_(idx[i], 0);
        mean /= static_cast<double>(idx.size());
        for (size_t i = 0; i < idx.size(); ++i) {
          y_arm(static_cast<int64_t>(i), 0) = y_(idx[i], 0) - mean;
        }
        Var i_arm = ops::GatherRows(rep_i, idx);
        Var cov = ops::MatmulTransA(i_arm, tape->Constant(y_arm));
        cov = ops::Scale(cov, 1.0 / static_cast<double>(idx.size()));
        aux = ops::Add(aux, ops::Scale(ops::SumAll(ops::Square(cov)),
                                       config_.instrument_indep));
      }
    }

    // (3) alpha: confounder balancing under learned per-arm weights
    // omega(C), anchored near 1.
    if (config_.confounder_balance > 0.0) {
      Var c_t = ops::GatherRows(rep_c, treated);
      Var c_c = ops::GatherRows(rep_c, control);
      Var omega_t = ops::Softplus(weight_head_t_.Forward(binder, c_t));
      Var omega_c = ops::Softplus(weight_head_c_.Forward(binder, c_c));
      Var balance = WeightedIpmLossSplit(c_t, omega_t, c_c, omega_c);
      Var anchor = ops::Add(
          ops::MeanAll(ops::Square(ops::AddConst(omega_t, -1.0))),
          ops::MeanAll(ops::Square(ops::AddConst(omega_c, -1.0))));
      aux = ops::Add(aux, ops::Scale(ops::Add(balance, anchor),
                                     config_.confounder_balance));
    }

    // (4) gamma: first-layer feature-importance orthogonality.
    if (config_.orthogonality > 0.0) {
      Var p_i = FeatureImportance(binder, i_net_);
      Var p_c = FeatureImportance(binder, c_net_);
      Var p_a = FeatureImportance(binder, a_net_);
      Var ortho = ops::Add(ops::Add(ops::SumAll(ops::Mul(p_i, p_c)),
                                    ops::SumAll(ops::Mul(p_i, p_a))),
                           ops::SumAll(ops::Mul(p_c, p_a)));
      aux = ops::Add(aux, ops::Scale(ortho, config_.orthogonality));
    }

    // (5) treatment prediction from [I, C].
    if (config_.treatment_loss > 0.0) {
      Var rep_ic = ops::ConcatCols(rep_i, rep_c);
      Var t_logit = t_head_.Forward(binder, rep_ic);
      Matrix t_labels(n, 1);
      for (int64_t i = 0; i < n; ++i) {
        t_labels(i, 0) = static_cast<double>(t[static_cast<size_t>(i)]);
      }
      Var t_loss = ops::MeanAll(
          ops::SigmoidCrossEntropyWithLogits(t_logit, t_labels));
      aux = ops::Add(aux, ops::Scale(t_loss, config_.treatment_loss));
    }
  }
  out.aux_loss = aux;
  return out;
}

void DerCfrBackbone::CollectParams(std::vector<Param*>* out) {
  i_net_.CollectParams(out);
  c_net_.CollectParams(out);
  a_net_.CollectParams(out);
  heads_.CollectParams(out);
  t_head_.CollectParams(out);
  weight_head_t_.CollectParams(out);
  weight_head_c_.CollectParams(out);
}

std::vector<Param*> DerCfrBackbone::DecayParams() {
  return heads_.DecayParams();
}

}  // namespace sbrl
