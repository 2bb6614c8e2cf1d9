#include "core/config.h"

namespace sbrl {

const char* BackboneName(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kTarnet: return "TARNet";
    case BackboneKind::kCfr: return "CFR";
    case BackboneKind::kDerCfr: return "DeR-CFR";
  }
  return "?";
}

const char* FrameworkName(FrameworkKind kind) {
  switch (kind) {
    case FrameworkKind::kVanilla: return "vanilla";
    case FrameworkKind::kSbrl: return "+SBRL";
    case FrameworkKind::kSbrlHap: return "+SBRL-HAP";
  }
  return "?";
}

std::string MethodName(BackboneKind backbone, FrameworkKind framework) {
  std::string name = BackboneName(backbone);
  if (framework != FrameworkKind::kVanilla) name += FrameworkName(framework);
  return name;
}

Status EstimatorConfig::Validate() const {
  if (network.rep_layers < 1 || network.rep_width < 1) {
    return Status::InvalidArgument("representation network needs >=1 layer "
                                   "of >=1 unit");
  }
  if (network.head_layers < 1 || network.head_width < 1) {
    return Status::InvalidArgument("head networks need >=1 layer of >=1 "
                                   "unit");
  }
  if (cfr.alpha_ipm < 0.0) {
    return Status::InvalidArgument("cfr.alpha_ipm must be >= 0");
  }
  if (sbrl.gamma1 < 0.0 || sbrl.gamma2 < 0.0 || sbrl.gamma3 < 0.0 ||
      sbrl.alpha_br < 0.0) {
    return Status::InvalidArgument("sbrl loss weights must be >= 0");
  }
  if (sbrl.hsic_pair_budget < 0) {
    return Status::InvalidArgument("sbrl.hsic_pair_budget must be >= 0");
  }
  if (sbrl.lr_w <= 0.0) {
    return Status::InvalidArgument("sbrl.lr_w must be > 0");
  }
  if (sbrl.recovery_max_retries < 0) {
    return Status::InvalidArgument("sbrl.recovery_max_retries must be >= 0");
  }
  if (train.iterations < 1) {
    return Status::InvalidArgument("train.iterations must be >= 1");
  }
  if (train.lr <= 0.0) {
    return Status::InvalidArgument("train.lr must be > 0");
  }
  if (train.eval_every < 0 || train.patience < 0) {
    return Status::InvalidArgument("early-stopping settings out of range");
  }
  if (train.checkpoint_every < 0) {
    return Status::InvalidArgument("train.checkpoint_every must be >= 0");
  }
  if (train.checkpoint_path.empty() &&
      (train.checkpoint_every > 0 || train.resume)) {
    return Status::InvalidArgument(
        "checkpoint_every/resume require train.checkpoint_path");
  }
  return Status::OK();
}

}  // namespace sbrl
