// Reproduces Table VI of the paper: single-execution training time of
// the nine methods on the IHDP dataset. Uses google-benchmark for the
// measurement loop. The reproduced artifact is the cost ordering:
// vanilla < +SBRL < +SBRL-HAP, with roughly 2x / 3x multipliers for
// TARNet and CFR and a smaller relative overhead for DeR-CFR.
//
// Each method's wall-clock fit time is also recorded through
// BenchJsonWriter and written to BENCH_table6.json (directory
// overridable via SBRL_BENCH_JSON_DIR) so the perf trajectory is
// machine-readable across PRs. The writer CHECKs every timing is
// finite, which the ctest smoke perf guard relies on.
//
// Every method records a "<name>/net_step" entry with the seconds
// spent inside the network step; for every weight-learning method, a
// "<name>/weight_step" entry records the seconds spent inside the
// sample-weight phase, and a "<name>/rff_cos" entry the seconds
// inside the RFF cosine sweeps, so the JSON captures the phase shares
// of training over time.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "common/timer.h"
#include "core/checkpoint.h"
#include "data/ihdp.h"
#include "eval/session.h"
#include "harness.h"

namespace sbrl {
namespace bench {
namespace {

BenchJsonWriter* g_json = nullptr;

// One session for the whole suite: every measured fit trains on a
// session-leased tape pool, so later methods reuse warm buffers the way
// engine sweeps do (results are bitwise identical to standalone fits;
// the timings are what the engine actually delivers).
ExperimentSession& Session() {
  static ExperimentSession* session = new ExperimentSession();
  return *session;
}

void TrainOnIhdp(benchmark::State& state, const MethodSpec& spec) {
  Scale scale = GetScale();
  // Table VI measures one execution; keep the iteration budget modest
  // so the whole 9-method suite stays tractable.
  if (scale.name == "default") scale.iterations = 80;
  IhdpConfig data_config;
  RealWorldSplits splits = MakeIhdpReplication(data_config, 111);
  for (auto _ : state) {
    EstimatorConfig config = WithMethod(BaseConfig(scale, 112), spec);
    config.train.eval_every = 0;  // measure the raw optimization loop
    auto estimator = HteEstimator::Create(config);
    SBRL_CHECK(estimator.ok());
    ExperimentSession::RunLease lease = Session().AcquireRun();
    Timer fit_timer;
    SBRL_CHECK(
        estimator->Fit(splits.train, &splits.valid, lease.tape_pool()).ok());
    if (g_json != nullptr) {
      g_json->Record(spec.name(), fit_timer.ElapsedSeconds());
      g_json->Record(spec.name() + "/net_step",
                     estimator->diagnostics().net_step_seconds);
      // Divergence-recovery bookkeeping cost (non-finite scans plus the
      // last-good snapshot capture). Target: under 1% of the method's
      // total fit time — the README "Failure handling" budget.
      g_json->Record(spec.name() + "/health",
                     estimator->diagnostics().health_seconds);
      if (config.framework != FrameworkKind::kVanilla) {
        g_json->Record(spec.name() + "/weight_step",
                       estimator->diagnostics().weight_step_seconds);
        g_json->Record(spec.name() + "/rff_cos",
                       estimator->diagnostics().rff_cos_seconds);
      }
    }
    benchmark::DoNotOptimize(estimator->PredictAte(splits.test.x));
  }
  state.SetLabel(spec.name());
}

// Measures checkpoint persistence latency on the heaviest method
// (CFR+SBRL-HAP): trains with a checkpoint cadence of one save per
// iteration, records the mean per-save wall time as "checkpoint/save"
// and a full LoadCheckpoint of the final state as "checkpoint/load".
void CheckpointIo(benchmark::State& state) {
  Scale scale = GetScale();
  if (scale.name == "default") scale.iterations = 80;
  IhdpConfig data_config;
  RealWorldSplits splits = MakeIhdpReplication(data_config, 111);
  const MethodSpec spec{BackboneKind::kCfr, FrameworkKind::kSbrlHap};
  const std::string path = ProcessScratchPath("bench_table6_checkpoint.ckpt");
  for (auto _ : state) {
    EstimatorConfig config = WithMethod(BaseConfig(scale, 112), spec);
    config.train.eval_every = 0;
    config.train.checkpoint_path = path;
    config.train.checkpoint_every = 1;
    auto estimator = HteEstimator::Create(config);
    SBRL_CHECK(estimator.ok());
    SBRL_CHECK(estimator->Fit(splits.train, &splits.valid).ok());
    const TrainDiagnostics& diag = estimator->diagnostics();
    SBRL_CHECK_EQ(diag.checkpoint_failures, 0);
    // One save per iteration plus the final end-of-training save.
    const double saves = static_cast<double>(config.train.iterations + 1);
    if (g_json != nullptr) {
      g_json->Record("checkpoint/save", diag.checkpoint_seconds / saves);
      Timer load_timer;
      StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
      SBRL_CHECK(loaded.ok()) << loaded.status().ToString();
      g_json->Record("checkpoint/load", load_timer.ElapsedSeconds());
    }
    benchmark::DoNotOptimize(estimator->PredictAte(splits.test.x));
  }
  std::remove(path.c_str());
  state.SetLabel("checkpoint_io");
}

void RegisterAll() {
  for (const MethodSpec& spec : AllNineMethods()) {
    benchmark::RegisterBenchmark(("TrainIhdp/" + spec.name()).c_str(),
                                 [spec](benchmark::State& state) {
                                   TrainOnIhdp(state, spec);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
  }
  benchmark::RegisterBenchmark("CheckpointIo", &CheckpointIo)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->MeasureProcessCPUTime();
}

}  // namespace
}  // namespace bench
}  // namespace sbrl

int main(int argc, char** argv) {
  sbrl::bench::BenchJsonWriter json("table6", sbrl::bench::GetScale());
  sbrl::bench::g_json = &json;
  sbrl::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sbrl::bench::g_json = nullptr;
  SBRL_CHECK_GT(json.entry_count(), 0) << "no benchmarks ran";
  std::cerr << "wrote " << json.WriteOrDie() << "\n";
  return 0;
}
