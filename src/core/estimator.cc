#include "core/estimator.h"

#include "common/cpu.h"
#include "core/dercfr.h"
#include "tensor/linalg.h"

namespace sbrl {

StatusOr<HteEstimator> HteEstimator::Create(const EstimatorConfig& config) {
  SBRL_RETURN_IF_ERROR(config.Validate());
  return HteEstimator(config);
}

Status HteEstimator::Fit(const CausalDataset& train,
                         const CausalDataset* valid, MatrixPool* tape_pool) {
  SBRL_RETURN_IF_ERROR(train.Validate());
  if (valid != nullptr) {
    SBRL_RETURN_IF_ERROR(valid->Validate());
    if (valid->dim() != train.dim()) {
      return Status::InvalidArgument(
          "validation covariate dimension differs from training");
    }
    if (valid->binary_outcome != train.binary_outcome) {
      return Status::InvalidArgument(
          "validation outcome type differs from training");
    }
  }
  spec_ = InferenceSpec();
  spec_.backbone = config_.backbone;
  spec_.network = config_.network;
  spec_.input_dim = train.dim();
  spec_.binary_outcome = train.binary_outcome;

  // Standardize continuous outcomes for stable head training; the
  // statistics are inverted at prediction time.
  CausalDataset train_std = train;
  CausalDataset valid_std;
  if (!spec_.binary_outcome) {
    spec_.y_mean = train.y.Mean();
    spec_.y_std = StdDev(train.y);
    if (spec_.y_std < 1e-12) {
      return Status::FailedPrecondition(
          "outcome has zero variance; nothing to learn");
    }
    for (int64_t i = 0; i < train_std.n(); ++i) {
      train_std.y(i, 0) = (train_std.y(i, 0) - spec_.y_mean) / spec_.y_std;
    }
    if (valid != nullptr) {
      valid_std = *valid;
      for (int64_t i = 0; i < valid_std.n(); ++i) {
        valid_std.y(i, 0) =
            (valid_std.y(i, 0) - spec_.y_mean) / spec_.y_std;
      }
      valid = &valid_std;
    }
  }

  Rng rng(config_.train.seed);
  backbone_ = CreateBackbone(config_, train.dim(), rng);
  if (auto* dercfr = dynamic_cast<DerCfrBackbone*>(backbone_.get())) {
    dercfr->SetOutcomes(train_std.y);
  }

  diag_ = TrainDiagnostics();
  SbrlTrainer trainer(config_, backbone_.get(), spec_.binary_outcome,
                      tape_pool);
  SBRL_RETURN_IF_ERROR(trainer.Train(train_std, valid, &diag_, &weights_));
  fitted_ = true;
  return Status::OK();
}

InferenceNet HteEstimator::Net() const {
  SBRL_CHECK(fitted_) << "call Fit before predicting";
  return InferenceNet::FromBackbone(*backbone_, spec_);
}

Matrix HteEstimator::PredictPotentialOutcomes(const Matrix& x) const {
  // Predict with the same kernel level the estimator trained at, pinned
  // thread-locally (concurrent sweep evaluation must not depend on the
  // process-wide default).
  ScopedThreadIsa isa_scope(config_.sbrl.isa);
  const InferenceNet net = Net();
  return net.ToOutcomes(net.Heads(x));
}

std::vector<double> HteEstimator::PredictIte(const Matrix& x) const {
  Matrix outcomes = PredictPotentialOutcomes(x);
  std::vector<double> ite(static_cast<size_t>(x.rows()));
  for (int64_t i = 0; i < x.rows(); ++i) {
    ite[static_cast<size_t>(i)] = outcomes(i, 1) - outcomes(i, 0);
  }
  return ite;
}

double HteEstimator::PredictAte(const Matrix& x) const {
  SBRL_CHECK_GT(x.rows(), 0);
  const std::vector<double> ite = PredictIte(x);
  double acc = 0.0;
  for (double v : ite) acc += v;
  return acc / static_cast<double>(ite.size());
}

Matrix HteEstimator::RepresentationOf(const Matrix& x) const {
  ScopedThreadIsa isa_scope(config_.sbrl.isa);
  return Net().Representation(x);
}

}  // namespace sbrl
