#include "core/hap.h"

#include "core/balancing_regularizer.h"
#include "core/independence_regularizer.h"

namespace sbrl {

Var BuildWeightLoss(Var w, const WeightLossInputs& inputs,
                    const SbrlConfig& config, FrameworkKind framework,
                    double alpha_br, IpmKind ipm, double rbf_bandwidth,
                    Rng& rng) {
  SBRL_CHECK(framework != FrameworkKind::kVanilla)
      << "vanilla models learn no sample weights";
  Tape* tape = w.tape();

  // One projection-draw epoch per weight step, shared by every
  // decorrelation tier below: tiers decorrelate with the same
  // (in_dim = 1, k) stream, so common column indices reuse the same
  // slot draws, each sampled once. The epoch seed is drawn
  // unconditionally so the rng stream position never depends on the
  // tier set.
  RffSlotDraws draws{rng.engine()(), {}};
  const auto decorrelation = [&](const Matrix& z) {
    return HsicRffDecorrelationLoss(z, w, config.rff_features,
                                    config.hsic_pair_budget, rng, &draws);
  };

  // R_w anchor: keeps weights near 1 so no unit dominates or vanishes.
  Var loss = ops::MeanAll(ops::Square(ops::AddConst(w, -1.0)));

  // Balancing Regularizer on the (detached) representation.
  if (alpha_br > 0.0) {
    Var rep_const = tape->Constant(inputs.z_r);
    loss = ops::Add(loss, ops::Scale(WeightedIpmLoss(rep_const, w, inputs.t,
                                                     ipm, rbf_bandwidth),
                                     alpha_br));
  }

  // Independence Regularizer: first priority, the last hidden layer.
  if (config.gamma1 > 0.0) {
    loss = ops::Add(loss, ops::Scale(decorrelation(inputs.z_p),
                                     config.gamma1));
  }

  if (framework == FrameworkKind::kSbrlHap) {
    // Second priority: the balanced representation layer.
    if (config.gamma2 > 0.0) {
      loss = ops::Add(loss, ops::Scale(decorrelation(inputs.z_r),
                                       config.gamma2));
    }
    // Third priority: every remaining hidden layer.
    if (config.gamma3 > 0.0) {
      for (const Matrix& z : inputs.z_o) {
        loss = ops::Add(loss, ops::Scale(decorrelation(z), config.gamma3));
      }
    }
  }
  return loss;
}

}  // namespace sbrl
