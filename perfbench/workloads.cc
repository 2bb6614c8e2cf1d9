// The benchmark's workloads. Each one makes its inputs from the run
// seed (untimed), sets the program up kSetupRepeats times (each
// repetition ends with one untimed warm-up operation; the median
// repetition is setup_s), runs its operation back to back for the
// requested seconds, and checks the outputs: results the library
// promises to be deterministic are compared bit for bit against the
// first result for the same input.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/estimator.h"
#include "core/ood_detector.h"
#include "core/sharded_trainer.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/session.h"
#include "eval/sweep.h"
#include "perfbench.h"
#include "serve/micro_batcher.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"
#include "stats/sharded.h"

namespace perfbench {

using sbrl::BackboneKind;
using sbrl::CausalDataset;
using sbrl::EstimatorConfig;
using sbrl::FrameworkKind;
using sbrl::HteEstimator;
using sbrl::Matrix;
using sbrl::Status;
using sbrl::StatusOr;
using sbrl::SyntheticDims;
using sbrl::SyntheticModel;
using sbrl::Timer;
using sbrl::TrainDiagnostics;

void WorkloadResult::Fail(const std::string& what) {
  correct = false;
  std::cerr << "[perfbench] check failed: " << what << "\n";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Seed for input stream `salt` of the run seeded `seed` (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Fewest timed operations a run makes, however long they take.
constexpr int64_t kMinOps = 5;
/// Distinct inputs the fit and sweep workloads alternate between, so
/// every input is seen more than once and determinism is checked on
/// each.
constexpr int kInputs = 2;
/// The paper's Syn_8_8_8_2 covariate blocks (Table I).
const SyntheticDims kDims;

/// Restarts the kernel's peak-RSS watermark (VmHWM) from the current
/// resident set, after returning freed heap to the system, so
/// peak_rss_mib covers set-up and the timed loop but not input
/// generation. Where /proc/self/clear_refs is not writable the
/// watermark stays the process lifetime's.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (clear_refs.good()) clear_refs << "5";
}

/// Runs `setup` kSetupRepeats times, recording each duration. The
/// peak-RSS watermark restarts first: inputs exist by now.
void TimedSetup(WorkloadResult* result, const std::function<void()>& setup) {
  ResetPeakRss();
  for (int r = 0; r < kSetupRepeats; ++r) {
    Timer timer;
    setup();
    result->setup_seconds.push_back(timer.ElapsedSeconds());
  }
}

/// Calls `op(i)` for i = 0, 1, ... until `seconds` of wall time have
/// passed and at least kMinOps operations ran. `op` appends the time of
/// its timed section to result->op_seconds (checks stay outside it)
/// and returns false when the operation failed.
void SequentialLoop(const RunSettings& settings, WorkloadResult* result,
                    const std::function<bool(int64_t)>& op) {
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < kMinOps || SecondsSince(start) < settings.seconds;
       ++i) {
    ++result->attempted;
    if (!op(i)) ++result->failed;
  }
  for (const double s : result->op_seconds) result->measured_seconds += s;
}

bool AllFinite(const Matrix& m) {
  for (int64_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m[i])) return false;
  }
  return true;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Compares `value` with the first value seen for the same input,
/// storing it when it is the first.
template <typename T, typename Equal>
bool MatchesFirst(const T& value, std::optional<T>* first, Equal equal) {
  if (!first->has_value()) {
    *first = value;
    return true;
  }
  return equal(**first, value);
}

/// The estimator settings shared by the fit, sweep and serve
/// workloads: the bench-scale network of the paper's Table IV shape.
/// Early stopping is off (patience far beyond the iteration budget),
/// so every fit runs its full budget and op time does not hinge on
/// where a seed's validation loss happens to stall.
EstimatorConfig BaseConfig(const sbrl::MethodSpec& method, int64_t iterations,
                           uint64_t seed) {
  EstimatorConfig config;
  config.network.rep_layers = 3;
  config.network.rep_width = 32;
  config.network.head_layers = 3;
  config.network.head_width = 16;
  config.train.iterations = iterations;
  config.train.lr = 1e-3;
  config.train.eval_every = 10;
  config.train.patience = 1 << 20;
  config.train.seed = seed;
  config.cfr.alpha_ipm = 1.0;
  config.sbrl.alpha_br = 1.0;
  config.sbrl.gamma1 = 10.0;
  config.sbrl.gamma2 = 1e-2;
  config.sbrl.gamma3 = 1e-2;
  config.sbrl.hsic_pair_budget = 24;
  config.sbrl.lr_w = 0.1;
  return sbrl::WithMethod(config, method);
}

/// Per-op trainer phase times (one fit, or the sum over a sweep's
/// cells), reported as medians in milliseconds.
struct PhaseSamples {
  std::vector<double> net, weight, cos, health, other;

  void Add(const std::vector<const TrainDiagnostics*>& fits) {
    double n = 0, w = 0, c = 0, h = 0, o = 0;
    for (const TrainDiagnostics* d : fits) {
      n += d->net_step_seconds;
      w += d->weight_step_seconds;
      c += d->rff_cos_seconds;
      h += d->health_seconds;
      o += d->train_seconds - d->net_step_seconds - d->weight_step_seconds -
           d->health_seconds;
    }
    net.push_back(n);
    weight.push_back(w);
    cos.push_back(c);
    health.push_back(h);
    other.push_back(o);
  }
  void Report(WorkloadResult* result) const {
    result->layer["train_net_step_ms"] = Median(net) * 1e3;
    result->layer["train_weight_step_ms"] = Median(weight) * 1e3;
    result->layer["train_rff_cos_ms"] = Median(cos) * 1e3;
    result->layer["train_health_ms"] = Median(health) * 1e3;
    result->layer["train_other_ms"] = Median(other) * 1e3;
  }
};

// ---------------------------------------------------------------------
// fit: one DeR-CFR + SBRL-HAP estimator fit and test-set prediction.
// ---------------------------------------------------------------------

constexpr int64_t kFitTrainRows = 1000;
constexpr int64_t kFitValidRows = 300;
constexpr int64_t kFitTestRows = 500;
constexpr int64_t kFitIterations = 30;

struct FitInput {
  CausalDataset train;
  CausalDataset valid;
  CausalDataset test;
  EstimatorConfig config;
  /// First predictions; every later fit of this input must match.
  std::optional<Matrix> first;
};

struct FitOutput {
  Status status = Status::OK();
  Matrix outcomes;
  TrainDiagnostics diag;
  double fit_seconds = 0.0;
  double predict_seconds = 0.0;
};

FitOutput FitOnce(const FitInput& input) {
  FitOutput out;
  Timer timer;
  StatusOr<HteEstimator> estimator = HteEstimator::Create(input.config);
  if (!estimator.ok()) {
    out.status = estimator.status();
    return out;
  }
  out.status = estimator->Fit(input.train, &input.valid);
  if (!out.status.ok()) return out;
  Timer predict_timer;
  out.outcomes = estimator->PredictPotentialOutcomes(input.test.x);
  out.predict_seconds = predict_timer.ElapsedSeconds();
  out.fit_seconds = timer.ElapsedSeconds();
  out.diag = estimator->diagnostics();
  return out;
}

bool CheckFit(const FitOutput& out, FitInput* input, WorkloadResult* result) {
  if (!out.status.ok()) {
    result->Fail("fit returned " + out.status.ToString());
    return false;
  }
  const Matrix& y = out.outcomes;
  if (y.rows() != kFitTestRows || y.cols() != 2 || !AllFinite(y)) {
    result->Fail("fit predictions are malformed or not finite");
    return false;
  }
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0 || y[i] > 1.0) {
      result->Fail("binary-outcome prediction outside [0, 1]");
      return false;
    }
  }
  const std::vector<double>& loss = out.diag.train_loss;
  if (loss.size() < 2 || !(loss.back() < loss.front())) {
    result->Fail("fit did not lower its training loss");
    return false;
  }
  if (!MatchesFirst(y, &input->first, BitwiseEqual)) {
    result->Fail("refit of the same input changed predictions");
    return false;
  }
  return true;
}

}  // namespace

WorkloadResult RunFit(const RunSettings& settings) {
  WorkloadResult result;
  const sbrl::MethodSpec method{BackboneKind::kDerCfr,
                                FrameworkKind::kSbrlHap};
  std::vector<FitInput> inputs(kInputs);
  for (int k = 0; k < kInputs; ++k) {
    const uint64_t base = 10 * static_cast<uint64_t>(k);
    const SyntheticModel model(kDims, SubSeed(settings.seed, base));
    FitInput& input = inputs[static_cast<size_t>(k)];
    input.train = model.SampleEnvironment(kFitTrainRows, 2.5,
                                          SubSeed(settings.seed, base + 1));
    input.valid = model.SampleEnvironment(kFitValidRows, 2.5,
                                          SubSeed(settings.seed, base + 2));
    input.test = model.SampleEnvironment(kFitTestRows, -2.5,
                                         SubSeed(settings.seed, base + 3));
    input.config =
        BaseConfig(method, kFitIterations, SubSeed(settings.seed, base + 4));
  }
  TimedSetup(&result,
             [&] { CheckFit(FitOnce(inputs[0]), &inputs[0], &result); });

  PhaseSamples phases;
  std::vector<double> predict;
  SequentialLoop(settings, &result, [&](int64_t i) {
    FitInput& input = inputs[static_cast<size_t>(i % kInputs)];
    const FitOutput out = FitOnce(input);
    result.op_seconds.push_back(out.fit_seconds);
    result.rows += static_cast<double>(kFitTrainRows * kFitIterations);
    phases.Add({&out.diag});
    predict.push_back(out.predict_seconds);
    return CheckFit(out, &input, &result);
  });
  phases.Report(&result);
  result.layer["predict_ms"] = Median(predict) * 1e3;
  return result;
}

// ---------------------------------------------------------------------
// sweep: the Table I plan (nine methods, eight test environments) on
// the in-process experiment engine at its default outer-worker count.
// ---------------------------------------------------------------------

namespace {

constexpr int64_t kSweepTrainRows = 300;
constexpr int64_t kSweepValidRows = 100;
constexpr int64_t kSweepTestRows = 100;
constexpr int64_t kSweepIterations = 60;
const double kRhoGrid[] = {-3.0, -2.5, -1.5, -1.3, 1.3, 1.5, 2.5, 3.0};

struct SweepInput {
  sbrl::RunPlan plan;
  /// First results; every later sweep of this plan must match.
  std::optional<std::vector<double>> first;
};

/// The Table I plan for one replication seed. make_datasets adds the
/// seconds it spends to `*data_seconds`.
sbrl::RunPlan SweepPlan(uint64_t seed, double* data_seconds) {
  sbrl::RunPlan plan;
  plan.methods = sbrl::AllNineMethods();
  plan.seeds = {seed};
  plan.make_datasets = [data_seconds](int64_t, uint64_t s) {
    Timer timer;
    const SyntheticModel model(kDims, s);
    sbrl::SweepDatasets data;
    data.train = model.SampleEnvironment(kSweepTrainRows, 2.5, s + 1);
    data.valid = model.SampleEnvironment(kSweepValidRows, 2.5, s + 2);
    uint64_t env_seed = s + 10;
    for (const double rho : kRhoGrid) {
      data.tests.push_back(
          model.SampleEnvironment(kSweepTestRows, rho, env_seed++));
    }
    *data_seconds += timer.ElapsedSeconds();
    return data;
  };
  const std::vector<sbrl::MethodSpec> methods = plan.methods;
  plan.make_config = [methods](int64_t m, int64_t, uint64_t s) {
    return BaseConfig(methods[static_cast<size_t>(m)], kSweepIterations,
                      s + 100);
  };
  return plan;
}

/// Every value of a sweep that must not depend on scheduling, or
/// nullopt (with the failure recorded) when a cell failed.
std::optional<std::vector<double>> SweepFingerprint(
    const sbrl::SweepResult& sweep, WorkloadResult* result) {
  std::vector<double> values;
  for (const auto& row : sweep.runs) {
    for (const sbrl::RunResult& run : row) {
      if (!run.status.ok()) {
        result->Fail("sweep cell returned " + run.status.ToString());
        return std::nullopt;
      }
      if (run.evals.size() != std::size(kRhoGrid)) {
        result->Fail("sweep cell is missing test environments");
        return std::nullopt;
      }
      for (const sbrl::EvalResult& e : run.evals) {
        for (const double v :
             {e.pehe, e.ate_error, e.f1_factual, e.f1_counterfactual}) {
          if (!std::isfinite(v)) {
            result->Fail("sweep metric is not finite");
            return std::nullopt;
          }
          values.push_back(v);
        }
      }
    }
  }
  return values;
}

bool CheckSweep(const sbrl::SweepResult& sweep, SweepInput* input,
                WorkloadResult* result) {
  const std::optional<std::vector<double>> fingerprint =
      SweepFingerprint(sweep, result);
  if (!fingerprint.has_value()) return false;
  if (!MatchesFirst(*fingerprint, &input->first,
                    std::equal_to<std::vector<double>>())) {
    result->Fail("rerun of the same sweep plan changed its results");
    return false;
  }
  return true;
}

}  // namespace

WorkloadResult RunSweep(const RunSettings& settings) {
  WorkloadResult result;
  double data_seconds = 0.0;
  std::vector<SweepInput> inputs(kInputs);
  for (int k = 0; k < kInputs; ++k) {
    inputs[static_cast<size_t>(k)].plan =
        SweepPlan(SubSeed(settings.seed, 100 + k), &data_seconds);
  }
  TimedSetup(&result, [&] {
    sbrl::ExperimentSession session;
    CheckSweep(sbrl::RunSweep(inputs[0].plan, &session), &inputs[0], &result);
  });

  PhaseSamples phases;
  std::vector<double> data, busy, slowest;
  SequentialLoop(settings, &result, [&](int64_t i) {
    SweepInput& input = inputs[static_cast<size_t>(i % kInputs)];
    data_seconds = 0.0;
    const Clock::time_point start = Clock::now();
    sbrl::ExperimentSession session;
    const sbrl::SweepResult sweep = sbrl::RunSweep(input.plan, &session);
    const double wall = SecondsSince(start);
    result.op_seconds.push_back(wall);

    std::vector<const TrainDiagnostics*> fits;
    double cell_total = 0.0, cell_max = 0.0;
    for (const auto& row : sweep.runs) {
      for (const sbrl::RunResult& run : row) {
        fits.push_back(&run.diag);
        cell_total += run.diag.train_seconds;
        cell_max = std::max(cell_max, run.diag.train_seconds);
      }
    }
    result.rows += static_cast<double>(fits.size()) *
                   static_cast<double>(kSweepTrainRows * kSweepIterations);
    phases.Add(fits);
    data.push_back(data_seconds);
    busy.push_back(cell_total /
                   (wall * std::max(1, sweep.outer_workers_used)));
    slowest.push_back(cell_max);
    return CheckSweep(sweep, &input, &result);
  });
  phases.Report(&result);
  result.layer["data_gen_ms"] = Median(data) * 1e3;
  result.layer["sweep_lane_busy_ratio"] = Median(busy);
  result.layer["sweep_slowest_cell_ms"] = Median(slowest) * 1e3;
  return result;
}

// ---------------------------------------------------------------------
// serve: a closed-loop client scoring single rows through the
// micro-batcher with row-level OOD stamping, against a CFR + SBRL-HAP
// model exported to and loaded from the on-disk format.
// ---------------------------------------------------------------------

namespace {

constexpr int64_t kServeTrainRows = 1000;
constexpr int64_t kServeIterations = 60;
/// Distinct request rows; the client walks through them in order.
constexpr int64_t kServePoolRows = 2048;
/// Responses re-scored directly to check the batcher's answers.
constexpr int64_t kServeChecked = 48;

std::vector<double> PoolRow(const Matrix& pool, int64_t r) {
  return std::vector<double>(pool.data() + r * pool.cols(),
                             pool.data() + (r + 1) * pool.cols());
}

Matrix PoolRows(const Matrix& pool, int64_t begin, int64_t count) {
  Matrix out(count, pool.cols());
  std::copy(pool.data() + begin * pool.cols(),
            pool.data() + (begin + count) * pool.cols(), out.data());
  return out;
}

struct Response {
  int64_t row = 0;
  double seconds = 0.0;
  sbrl::serve::ServingModel::RowScore score;
};

}  // namespace

WorkloadResult RunServe(const RunSettings& settings) {
  WorkloadResult result;
  const SyntheticModel synthetic(kDims, SubSeed(settings.seed, 200));
  const CausalDataset train = synthetic.SampleEnvironment(
      kServeTrainRows, 2.5, SubSeed(settings.seed, 201));
  // Requests come from the far-OOD environment, the population a
  // stable estimator is deployed for.
  const Matrix pool =
      synthetic
          .SampleEnvironment(kServePoolRows, -2.5, SubSeed(settings.seed, 202))
          .x;
  EstimatorConfig config =
      BaseConfig({BackboneKind::kCfr, FrameworkKind::kSbrlHap},
                 kServeIterations, SubSeed(settings.seed, 203));
  config.train.eval_every = 0;
  StatusOr<HteEstimator> estimator = HteEstimator::Create(config);
  if (!estimator.ok() || !estimator->Fit(train).ok()) {
    result.Fail("serving model failed to train");
    return result;
  }
  StatusOr<sbrl::OodLevelDetector> detector =
      sbrl::OodLevelDetector::Fit(train.x);
  if (!detector.ok()) {
    result.Fail("OOD detector failed to fit");
    return result;
  }
  const std::string path = settings.scratch_dir + "/serve_" +
                           std::to_string(::getpid()) + ".model";
  const Status exported =
      sbrl::serve::ExportServingModel(*estimator, &*detector, path);
  if (!exported.ok()) {
    result.Fail("serving model export: " + exported.ToString());
    return result;
  }
  const Matrix head = PoolRows(pool, 0, 256);
  const Matrix predicted = estimator->PredictPotentialOutcomes(head);

  // Set-up: load the model, check it scores exactly like the estimator,
  // start the batcher and send one request.
  std::optional<sbrl::serve::ServingModel> model;
  std::unique_ptr<sbrl::serve::MicroBatcher> batcher;
  std::vector<double> load;
  TimedSetup(&result, [&] {
    batcher.reset();
    model.reset();
    Timer load_timer;
    StatusOr<sbrl::serve::ServingModel> loaded =
        sbrl::serve::ServingModel::Load(path);
    load.push_back(load_timer.ElapsedSeconds());
    if (!loaded.ok()) {
      result.Fail("serving model load: " + loaded.status().ToString());
      return;
    }
    model.emplace(std::move(*loaded));
    if (!BitwiseEqual(model->ScoreOutcomes(head), predicted)) {
      result.Fail("served scores differ from the estimator's predictions");
    }
    sbrl::serve::MicroBatcher::Options options;
    options.ood = true;
    batcher = std::make_unique<sbrl::serve::MicroBatcher>(&*model, options);
    batcher->ScoreRow(PoolRow(pool, 0));
  });
  std::remove(path.c_str());
  if (batcher == nullptr) return result;
  result.layer["serve_load_ms"] = Median(load) * 1e3;

  // One closed-loop client: the next request goes out when the previous
  // answer is back.
  std::vector<Response> all;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; SecondsSince(start) < settings.seconds; ++i) {
    const int64_t r = i % pool.rows();
    const std::vector<double> row = PoolRow(pool, r);
    const Clock::time_point sent = Clock::now();
    const sbrl::serve::ServingModel::RowScore score = batcher->ScoreRow(row);
    all.push_back({r, SecondsSince(sent), score});
  }
  result.measured_seconds = SecondsSince(start);
  batcher->Shutdown();

  result.attempted = static_cast<int64_t>(all.size());
  result.rows = static_cast<double>(all.size());
  for (const Response& r : all) {
    result.op_seconds.push_back(r.seconds);
    const auto& s = r.score;
    if (!(s.y0 >= 0.0 && s.y0 <= 1.0 && s.y1 >= 0.0 && s.y1 <= 1.0 &&
          s.ood_level >= 0.0 && s.ood_level <= 1.0)) {
      ++result.failed;
      result.Fail("served score out of range");
    }
  }
  // Coalescing must not change a bit: re-score an evenly spaced sample
  // of the responses directly, one row at a time. What a request took
  // beyond its own direct scoring is time spent waiting in the batcher.
  sbrl::serve::ServingModel::ScoreOptions direct;
  direct.ood = true;
  std::vector<double> waits;
  const size_t stride = std::max<size_t>(1, all.size() / kServeChecked);
  for (size_t i = 0; i < all.size(); i += stride) {
    const Response& r = all[i];
    Timer timer;
    const sbrl::serve::ServingModel::RowScore want =
        model->ScoreRows(PoolRows(pool, r.row, 1), direct)[0];
    waits.push_back(r.seconds - timer.ElapsedSeconds());
    if (want.y0 != r.score.y0 || want.y1 != r.score.y1 ||
        want.ood_level != r.score.ood_level ||
        want.ood_flagged != r.score.ood_flagged) {
      ++result.failed;
      result.Fail("micro-batched response differs from direct scoring");
    }
  }
  result.layer["serve_wait_us"] = std::max(0.0, Median(waits)) * 1e6;
  if (settings.trace) {
    // Single-row cost of each compute stage, timed in isolation.
    auto time_calls = [&](int64_t max_calls, double budget,
                          const std::function<void(const Matrix&)>& call) {
      std::vector<double> samples;
      const Clock::time_point begin = Clock::now();
      for (int64_t i = 0;
           i < max_calls && (i < 5 || SecondsSince(begin) < budget); ++i) {
        const Matrix row = PoolRows(pool, i % pool.rows(), 1);
        const Clock::time_point t0 = Clock::now();
        call(row);
        samples.push_back(SecondsSince(t0));
      }
      return Median(samples);
    };
    result.layer["serve_forward_us"] =
        time_calls(4000, 0.5,
                   [&](const Matrix& row) { model->ScoreOutcomes(row); }) *
        1e6;
    result.layer["serve_ood_us"] =
        time_calls(400, 1.0,
                   [&](const Matrix& row) { model->RowOodLevel(row); }) *
        1e6;
  }
  return result;
}


// ---------------------------------------------------------------------
// stream: one out-of-core pipeline over a generated row stream — a
// sharded TARNet fit, a streamed ATE, column moments and an HSIC-RFF
// statistic, each a full pass through the block reader.
// ---------------------------------------------------------------------

namespace {

constexpr int64_t kStreamRows = 65536;
constexpr int64_t kStreamShardRows = 4096;
constexpr int64_t kStreamIterations = 2;
/// Passes over the stream per operation: the fit's, then ATE, moments
/// and HSIC.
constexpr int64_t kStreamPasses = kStreamIterations + 3;
constexpr int64_t kStreamFeatures = 8;

struct StreamOutput {
  Status status = Status::OK();
  std::vector<Matrix> params;
  sbrl::ShardedTrainDiagnostics diag;
  double ate = 0.0;
  double hsic = 0.0;
  sbrl::ColumnMoments moments;
  double train_seconds = 0.0;
  double ate_seconds = 0.0;
  double moments_seconds = 0.0;
  double hsic_seconds = 0.0;
};

StreamOutput StreamOnce(const sbrl::ShardedTrainerConfig& config,
                        uint64_t draw_seed, sbrl::DatasetBlockReader& reader) {
  StreamOutput out;
  sbrl::ShardedOptions options;
  options.shard_rows = kStreamShardRows;
  Timer timer;
  sbrl::ShardedTrainer trainer(config, reader.dim());
  out.status = trainer.Train(reader, &out.diag);
  if (!out.status.ok()) return out;
  out.train_seconds = timer.ElapsedSeconds();
  timer.Restart();
  StatusOr<double> ate = trainer.EstimateAte(reader);
  out.ate_seconds = timer.ElapsedSeconds();
  if (!ate.ok()) {
    out.status = ate.status();
    return out;
  }
  out.ate = *ate;
  timer.Restart();
  out.status = reader.Reset();
  if (!out.status.ok()) return out;
  StatusOr<sbrl::ColumnMoments> moments =
      sbrl::ShardedColumnMoments(reader, options);
  out.moments_seconds = timer.ElapsedSeconds();
  if (!moments.ok()) {
    out.status = moments.status();
    return out;
  }
  out.moments = std::move(*moments);
  timer.Restart();
  out.status = reader.Reset();
  if (!out.status.ok()) return out;
  StatusOr<double> hsic =
      sbrl::ShardedHsicRff(reader, reader.dim() - kDims.m_v,
                           sbrl::kOutcomeColumn, kStreamFeatures, draw_seed,
                           options);
  out.hsic_seconds = timer.ElapsedSeconds();
  if (!hsic.ok()) {
    out.status = hsic.status();
    return out;
  }
  out.hsic = *hsic;
  trainer.CollectParamValues(&out.params);
  return out;
}

bool ParamsEqual(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t p = 0; p < a.size(); ++p) {
    if (!BitwiseEqual(a[p], b[p])) return false;
  }
  return true;
}

bool CheckStream(const StreamOutput& out,
                 std::optional<std::vector<Matrix>>* first,
                 WorkloadResult* result) {
  if (!out.status.ok()) {
    result->Fail("stream pipeline returned " + out.status.ToString());
    return false;
  }
  bool finite_loss = !out.diag.train_loss.empty();
  for (const double l : out.diag.train_loss) {
    finite_loss = finite_loss && std::isfinite(l);
  }
  if (!finite_loss || out.diag.rows != kStreamRows ||
      out.moments.rows != kStreamRows || !std::isfinite(out.ate) ||
      std::abs(out.ate) > 1.0 || !std::isfinite(out.hsic) || out.hsic < 0.0) {
    result->Fail("stream pipeline output is malformed");
    return false;
  }
  if (!MatchesFirst(out.params, first, ParamsEqual)) {
    result->Fail("refit of the same stream changed the parameters");
    return false;
  }
  return true;
}

/// Reads the stream once more, in row order, timing the reader alone
/// and checking the sharded column means of a pipeline pass against a
/// plain running sum. Returns the seconds spent inside NextBlock.
double ReadAndCheckMoments(sbrl::DatasetBlockReader& reader,
                           const sbrl::ColumnMoments& moments,
                           WorkloadResult* result) {
  std::vector<double> sums(static_cast<size_t>(reader.dim()), 0.0);
  CausalDataset block;
  double read_seconds = 0.0;
  if (!reader.Reset().ok()) {
    result->Fail("stream reset failed");
    return read_seconds;
  }
  for (;;) {
    Timer timer;
    StatusOr<int64_t> got = reader.NextBlock(kStreamShardRows, &block);
    read_seconds += timer.ElapsedSeconds();
    if (!got.ok()) {
      result->Fail("stream read: " + got.status().ToString());
      return read_seconds;
    }
    if (*got == 0) break;
    for (int64_t i = 0; i < *got; ++i) {
      for (int64_t j = 0; j < block.dim(); ++j) {
        sums[static_cast<size_t>(j)] += block.x(i, j);
      }
    }
  }
  const double n = static_cast<double>(kStreamRows);
  for (size_t j = 0; j < sums.size(); ++j) {
    const double want = sums[j] / n;
    const double got = moments.sum(0, static_cast<int64_t>(j)) / n;
    // Only the summation order differs.
    if (!(std::abs(want - got) <= 1e-9 * (1.0 + std::abs(want)))) {
      result->Fail("sharded column mean differs from a plain sum");
      break;
    }
  }
  return read_seconds;
}

}  // namespace

WorkloadResult RunStream(const RunSettings& settings) {
  WorkloadResult result;
  sbrl::ShardedTrainerConfig config;
  config.network.rep_layers = 2;
  config.network.head_layers = 2;
  config.iterations = kStreamIterations;
  config.seed = SubSeed(settings.seed, 310);
  config.sharding.shard_rows = kStreamShardRows;
  const uint64_t draw_seed = SubSeed(settings.seed, 311);

  // Set-up: build the generator and reader, then run the pipeline once.
  std::unique_ptr<sbrl::SyntheticBlockReader> reader;
  std::unique_ptr<SyntheticModel> model;
  std::optional<std::vector<Matrix>> first;
  sbrl::ColumnMoments moments;
  TimedSetup(&result, [&] {
    reader.reset();
    model =
        std::make_unique<SyntheticModel>(kDims, SubSeed(settings.seed, 300));
    // rho = 1: unbiased rows, as a production stream would hold;
    // biased rejection sampling would dominate every pass.
    reader = std::make_unique<sbrl::SyntheticBlockReader>(
        model.get(), kStreamRows, 1.0, SubSeed(settings.seed, 301),
        kStreamShardRows);
    StreamOutput out = StreamOnce(config, draw_seed, *reader);
    CheckStream(out, &first, &result);
    moments = std::move(out.moments);
  });

  std::vector<double> train, ate, moments_pass, hsic;
  SequentialLoop(settings, &result, [&](int64_t) {
    const StreamOutput out = StreamOnce(config, draw_seed, *reader);
    result.op_seconds.push_back(out.train_seconds + out.ate_seconds +
                                out.moments_seconds + out.hsic_seconds);
    result.rows += static_cast<double>(kStreamRows * kStreamPasses);
    train.push_back(out.train_seconds / kStreamIterations);
    ate.push_back(out.ate_seconds);
    moments_pass.push_back(out.moments_seconds);
    hsic.push_back(out.hsic_seconds);
    return CheckStream(out, &first, &result);
  });
  result.layer["stream_read_pass_ms"] =
      ReadAndCheckMoments(*reader, moments, &result) * 1e3;
  result.layer["stream_train_pass_ms"] = Median(train) * 1e3;
  result.layer["stream_ate_pass_ms"] = Median(ate) * 1e3;
  result.layer["stream_moments_pass_ms"] = Median(moments_pass) * 1e3;
  result.layer["stream_hsic_pass_ms"] = Median(hsic) * 1e3;
  return result;
}

}  // namespace perfbench
