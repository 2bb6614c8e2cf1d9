#include "core/sharded_trainer.h"

#include <cmath>
#include <utility>

#include "autodiff/ops.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/trainer.h"
#include "nn/lr_schedule.h"
#include "nn/optimizer.h"
#include "tensor/linalg.h"

namespace sbrl {

namespace {

// Per-row ITE from the raw head outputs: sigmoid-probability
// difference for binary outcomes, raw difference otherwise.
Matrix IteOf(const InferenceNet& net, const Matrix& x, MatrixPool* pool) {
  const Matrix heads = net.Heads(x, pool);
  Matrix ite(x.rows(), 1);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const double y0 = heads(i, 0);
    const double y1 = heads(i, 1);
    ite(i, 0) = net.spec().binary_outcome
                    ? StableSigmoid(y1) - StableSigmoid(y0)
                    : y1 - y0;
  }
  return ite;
}

}  // namespace

/// Everything one shard contributes to the pass: counts, loss and
/// outcome sums, and per-param gradient SUMS (d/dθ of the loss sum,
/// so shards combine by plain addition and the mean-loss gradient is
/// one 1/n scale at the root).
struct ShardedTrainer::ShardStats {
  int64_t rows = 0;
  double loss_sum = 0.0;
  int64_t treated = 0;
  double y_treated_sum = 0.0;
  double y_control_sum = 0.0;
  std::vector<Matrix> grads;
};

ShardedTrainer::ShardedTrainer(const ShardedTrainerConfig& config,
                               int64_t input_dim)
    : config_(config), input_dim_(input_dim) {
  SBRL_CHECK_GT(input_dim, 0);
  SBRL_CHECK_GT(config.iterations, 0);
  SBRL_CHECK(!config.network.batchnorm)
      << "sharded training requires batchnorm=false: batch "
         "normalization couples rows, so per-shard gradient sums would "
         "not compose into the full-batch gradient";
  EstimatorConfig backbone_config;
  backbone_config.backbone = BackboneKind::kTarnet;
  backbone_config.framework = FrameworkKind::kVanilla;
  backbone_config.network = config.network;
  Rng rng(config.seed);
  backbone_ = CreateBackbone(backbone_config, input_dim, rng);
  backbone_->CollectParams(&params_);
  for (size_t i = 0; i < params_.size(); ++i) {
    param_index_[params_[i]] = i;
  }
}

ShardedTrainer::ShardStats ShardedTrainer::ComputeShard(
    const CausalDataset& block, MatrixPool* pool) {
  Tape tape(pool);
  ParamBinder binder(&tape);
  Var w = tape.Constant(Matrix::Ones(block.n(), 1));
  BackboneForward fwd =
      backbone_->Forward(binder, block.x, block.t, w, /*training=*/true);
  Var losses = FactualLosses(fwd.y0, fwd.y1, block.t, block.y,
                             config_.binary_outcome);
  // SumAll, not MeanAll: the shard exports extensive quantities so the
  // reduction is a plain fixed-order addition.
  Var loss_sum = ops::SumAll(losses);
  tape.Backward(loss_sum);

  ShardStats stats;
  stats.rows = block.n();
  stats.loss_sum = loss_sum.value().scalar();
  for (int64_t i = 0; i < block.n(); ++i) {
    if (block.t[static_cast<size_t>(i)] == 1) {
      ++stats.treated;
      stats.y_treated_sum += block.y(i, 0);
    } else {
      stats.y_control_sum += block.y(i, 0);
    }
  }
  std::vector<std::pair<Param*, Matrix>> leaf_grads;
  binder.CollectLeafGrads(&leaf_grads);
  stats.grads.resize(params_.size());
  for (auto& [param, grad] : leaf_grads) {
    const auto it = param_index_.find(param);
    SBRL_CHECK(it != param_index_.end());
    stats.grads[it->second] = std::move(grad);
  }
  // Params outside this shard's gradient path (possible in degenerate
  // single-arm tail shards) contribute zero.
  for (size_t i = 0; i < params_.size(); ++i) {
    if (stats.grads[i].empty()) {
      stats.grads[i] =
          Matrix(params_[i]->value.rows(), params_[i]->value.cols());
    }
  }
  return stats;
}

Status ShardedTrainer::Train(DatasetBlockReader& reader,
                             ShardedTrainDiagnostics* diag) {
  SBRL_CHECK_EQ(reader.dim(), input_dim_);
  const ShardedOptions opts = ResolveShardedOptions(config_.sharding);
  while (static_cast<int64_t>(slot_pools_.size()) < opts.workers) {
    slot_pools_.push_back(std::make_unique<MatrixPool>());
  }

  std::vector<Param*> decay_params = backbone_->DecayParams();
  std::vector<Param*> plain_params;
  for (Param* p : params_) {
    bool decays = false;
    for (Param* d : decay_params) decays = decays || (d == p);
    if (!decays) plain_params.push_back(p);
  }
  AdamConfig decay_config;
  decay_config.weight_decay = config_.l2;
  AdamOptimizer opt_decay(decay_params, decay_config);
  AdamOptimizer opt_plain(plain_params);
  ExponentialDecaySchedule schedule(config_.lr, config_.lr_decay_rate,
                                    config_.lr_decay_steps);

  ShardedTrainDiagnostics local;
  if (diag == nullptr) diag = &local;
  diag->train_loss.clear();
  diag->shard_rows = opts.shard_rows;
  diag->workers = opts.workers;

  const auto leaf = [this](int64_t /*shard*/, int64_t slot,
                           const CausalDataset& block) {
    return ComputeShard(block,
                        slot_pools_[static_cast<size_t>(slot)].get());
  };
  const auto combine = [](ShardStats a, ShardStats b) {
    a.rows += b.rows;
    a.loss_sum += b.loss_sum;
    a.treated += b.treated;
    a.y_treated_sum += b.y_treated_sum;
    a.y_control_sum += b.y_control_sum;
    SBRL_CHECK_EQ(a.grads.size(), b.grads.size());
    for (size_t i = 0; i < a.grads.size(); ++i) a.grads[i] += b.grads[i];
    return a;
  };

  Timer timer;
  for (int64_t iter = 0; iter < config_.iterations; ++iter) {
    SBRL_RETURN_IF_ERROR(reader.Reset());
    int64_t rows = 0;
    int64_t shards = 0;
    SBRL_ASSIGN_OR_RETURN(
        ShardStats total,
        ShardedReduce<ShardStats>(reader, opts, leaf, combine, &rows,
                                  &shards));
    const double inv_n = 1.0 / static_cast<double>(rows);
    for (size_t i = 0; i < params_.size(); ++i) {
      total.grads[i] *= inv_n;
      params_[i]->grad = std::move(total.grads[i]);
    }
    const double lr = schedule.LearningRate(iter);
    const double grad_digest = opt_decay.Step(lr) + opt_plain.Step(lr);
    if (!std::isfinite(grad_digest)) {
      return Status::Internal("non-finite gradient digest at pass " +
                              std::to_string(iter));
    }
    diag->train_loss.push_back(total.loss_sum * inv_n);
    diag->rows = rows;
    diag->shards = shards;
    diag->treated_rows = total.treated;
    diag->control_rows = rows - total.treated;
    diag->treated_outcome_mean =
        total.treated > 0
            ? total.y_treated_sum / static_cast<double>(total.treated)
            : 0.0;
    diag->control_outcome_mean =
        diag->control_rows > 0
            ? total.y_control_sum / static_cast<double>(diag->control_rows)
            : 0.0;
    if (config_.verbose) {
      SBRL_LOG(Info) << "sharded pass " << iter << ": rows=" << rows
                     << " shards=" << shards
                     << " loss=" << diag->train_loss.back();
    }
  }
  diag->train_seconds = timer.ElapsedSeconds();
  diag->rows_per_second =
      diag->train_seconds > 0.0
          ? static_cast<double>(diag->rows * config_.iterations) /
                diag->train_seconds
          : 0.0;
  return Status::OK();
}

StatusOr<double> ShardedTrainer::EstimateAte(DatasetBlockReader& reader) {
  SBRL_CHECK_EQ(reader.dim(), input_dim_);
  const ShardedOptions opts = ResolveShardedOptions(config_.sharding);
  while (static_cast<int64_t>(slot_pools_.size()) < opts.workers) {
    slot_pools_.push_back(std::make_unique<MatrixPool>());
  }
  SBRL_RETURN_IF_ERROR(reader.Reset());
  const InferenceNet net = Net();
  struct IteSum {
    int64_t rows = 0;
    double sum = 0.0;
  };
  const auto combine = [](IteSum a, IteSum b) {
    a.rows += b.rows;
    a.sum += b.sum;
    return a;
  };
  SBRL_ASSIGN_OR_RETURN(
      const IteSum total,
      ShardedReduce<IteSum>(
          reader, opts,
          [this, &net](int64_t /*shard*/, int64_t slot,
                       const CausalDataset& block) {
            const Matrix ite = IteOf(
                net, block.x, slot_pools_[static_cast<size_t>(slot)].get());
            IteSum s;
            s.rows = block.n();
            for (int64_t i = 0; i < ite.rows(); ++i) s.sum += ite(i, 0);
            return s;
          },
          combine));
  return total.sum / static_cast<double>(total.rows);
}

InferenceNet ShardedTrainer::Net() const {
  InferenceSpec spec;
  spec.backbone = BackboneKind::kTarnet;
  spec.network = config_.network;
  spec.input_dim = input_dim_;
  spec.binary_outcome = config_.binary_outcome;
  return InferenceNet::FromBackbone(*backbone_, spec);
}

Matrix ShardedTrainer::PredictIte(const Matrix& x) const {
  return IteOf(Net(), x, nullptr);
}

void ShardedTrainer::CollectParamValues(std::vector<Matrix>* out) const {
  SBRL_CHECK(out != nullptr);
  for (const Param* p : params_) out->push_back(p->value);
}

}  // namespace sbrl
