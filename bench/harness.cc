#include "harness.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "common/cpu.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/split.h"

namespace sbrl {
namespace bench {

Scale GetScale() {
  Scale scale;  // "default": single-replication, ~10s per model fit
  scale.n_train = 1000;
  scale.n_valid = 300;
  scale.n_test = 500;
  scale.iterations = 200;
  scale.replications = 1;
  const char* env = std::getenv("SBRL_BENCH_SCALE");
  const std::string mode = env == nullptr ? "default" : env;
  if (mode == "smoke") {
    scale.name = "smoke";
    scale.n_train = 200;
    scale.n_valid = 100;
    scale.n_test = 150;
    scale.iterations = 40;
    scale.replications = 1;
    scale.rep_width = 16;
    scale.head_width = 8;
  } else if (mode == "full") {
    scale.name = "full";
    scale.n_train = 3000;
    scale.n_valid = 1000;
    scale.n_test = 1500;
    scale.iterations = 600;
    scale.replications = 3;
    scale.rep_width = 64;
    scale.head_width = 32;
  }
  return scale;
}

EstimatorConfig BaseConfig(const Scale& scale, uint64_t seed) {
  EstimatorConfig config;
  config.network.rep_layers = 3;
  config.network.rep_width = scale.rep_width;
  config.network.head_layers = 3;
  config.network.head_width = scale.head_width;
  config.train.iterations = scale.iterations;
  config.train.lr = 1e-3;
  config.train.eval_every = 25;
  config.train.patience = 12;
  config.train.seed = seed;
  config.cfr.alpha_ipm = 1.0;
  // Strong last-layer attention with light lower tiers — the shape of
  // the paper's Table IV optima ({gamma1, gamma2, gamma3} = {1, 1e-3,
  // 1e-3} on Syn_16), scaled up because the bench trains fewer
  // iterations than the paper's 3000.
  config.sbrl.alpha_br = 1.0;
  config.sbrl.gamma1 = 10.0;
  config.sbrl.gamma2 = 1e-2;
  config.sbrl.gamma3 = 1e-2;
  config.sbrl.hsic_pair_budget = 24;
  config.sbrl.lr_w = 0.1;
  return config;
}

std::vector<double> PaperRhoGrid() {
  return {-3.0, -2.5, -1.5, -1.3, 1.3, 1.5, 2.5, 3.0};
}

RunPlan SyntheticRunPlan(const SyntheticDims& dims,
                         const std::vector<MethodSpec>& methods,
                         const std::vector<double>& rho_grid,
                         const Scale& scale, uint64_t seed) {
  RunPlan plan;
  plan.methods = methods;
  plan.seeds.reserve(static_cast<size_t>(scale.replications));
  for (int rep = 0; rep < scale.replications; ++rep) {
    plan.seeds.push_back(seed + static_cast<uint64_t>(rep) * 1000003);
  }
  plan.make_datasets = [dims, rho_grid, scale](int64_t /*seed_index*/,
                                               uint64_t rep_seed) {
    SyntheticModel model(dims, rep_seed);
    // Training population: the rho = +2.5 environment (paper default).
    CausalDataset pool = model.SampleEnvironment(
        scale.n_train + scale.n_valid, 2.5, rep_seed + 1);
    Rng split_rng(rep_seed + 2);
    TrainValid tv = SplitTrainValid(
        pool,
        static_cast<double>(scale.n_train) /
            static_cast<double>(scale.n_train + scale.n_valid),
        split_rng);
    SweepDatasets data;
    data.train = std::move(tv.train);
    data.valid = std::move(tv.valid);
    // Test environments, shared by all methods within this replication.
    data.tests.reserve(rho_grid.size());
    for (size_t r = 0; r < rho_grid.size(); ++r) {
      data.tests.push_back(model.SampleEnvironment(
          scale.n_test, rho_grid[r], rep_seed + 10 + static_cast<uint64_t>(r)));
    }
    return data;
  };
  plan.make_config = [methods, scale](int64_t method_index,
                                      int64_t /*seed_index*/,
                                      uint64_t rep_seed) {
    return WithMethod(BaseConfig(scale, rep_seed + 100),
                      methods[static_cast<size_t>(method_index)]);
  };
  return plan;
}

SweepOutput RunSyntheticSweep(const SyntheticDims& dims,
                              const std::vector<MethodSpec>& methods,
                              const std::vector<double>& rho_grid,
                              const Scale& scale, uint64_t seed) {
  const RunPlan plan =
      SyntheticRunPlan(dims, methods, rho_grid, scale, seed);
  ExperimentSession session;
  SweepOptions options;
  options.progress = true;
  const SweepResult sweep = RunSweep(plan, &session, options);
  std::cerr << "[sweep] " << methods.size() * plan.seeds.size()
            << " runs in " << sweep.wall_seconds << "s ("
            << sweep.outer_workers_used << " outer workers)\n";

  SweepOutput out;
  out.methods = methods;
  out.rho_grid = rho_grid;
  out.cells.assign(methods.size(),
                   std::vector<std::vector<EvalResult>>(rho_grid.size()));
  for (size_t m = 0; m < methods.size(); ++m) {
    for (size_t s = 0; s < plan.seeds.size(); ++s) {
      const RunResult& run = sweep.runs[m][s];
      SBRL_CHECK(run.status.ok()) << run.status.ToString();
      for (size_t r = 0; r < rho_grid.size(); ++r) {
        out.cells[m][r].push_back(run.evals[r]);
      }
    }
  }
  return out;
}

namespace {
std::string CellOf(const std::vector<EvalResult>& runs,
                   double EvalResult::* field) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const EvalResult& r : runs) values.push_back(r.*field);
  const EnvAggregate agg = AggregateOverEnvironments(values);
  return FormatMeanStd(agg.mean, agg.std_dev);
}
}  // namespace

std::string CellPehe(const std::vector<EvalResult>& runs) {
  return CellOf(runs, &EvalResult::pehe);
}

std::string CellAte(const std::vector<EvalResult>& runs) {
  return CellOf(runs, &EvalResult::ate_error);
}

std::string ProcessScratchPath(const std::string& stem) {
  return stem + "." + std::to_string(::getpid()) + ".tmp";
}

void PrintBanner(const std::string& experiment,
                 const std::string& paper_artifact, const Scale& scale) {
  std::cout << "=============================================================="
               "==\n"
            << experiment << "\nReproduces: " << paper_artifact
            << "\nScale: " << scale.name << " (n_train=" << scale.n_train
            << ", iterations=" << scale.iterations
            << ", replications=" << scale.replications
            << "; set SBRL_BENCH_SCALE=smoke|default|full)\n"
            << "Absolute numbers differ from the paper (simulated data, "
               "scaled training);\nthe comparisons across methods and "
               "environments are the reproduced artifact.\n"
            << "=============================================================="
               "==\n";
}

BenchJsonWriter::BenchJsonWriter(std::string bench_id, const Scale& scale)
    : bench_id_(std::move(bench_id)), scale_name_(scale.name) {}

void BenchJsonWriter::Record(const std::string& name, double wall_seconds) {
  entries_.push_back({name, wall_seconds});
}

std::string BenchJsonWriter::WriteOrDie() const {
  for (const Entry& e : entries_) {
    SBRL_CHECK(std::isfinite(e.wall_seconds) && e.wall_seconds >= 0.0)
        << "non-finite or negative timing for '" << e.name
        << "': " << e.wall_seconds;
  }
  const char* dir = std::getenv("SBRL_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0')
                         ? std::string(dir) + "/BENCH_" + bench_id_ + ".json"
                         : "BENCH_" + bench_id_ + ".json";
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"" << bench_id_ << "\",\n"
     << "  \"scale\": \"" << scale_name_ << "\",\n"
     << "  \"threads\": " << ThreadPool::GlobalParallelism() << ",\n"
     << "  \"isa\": \"" << IsaName(ActiveIsa()) << "\",\n"
     << "  \"cpu\": \"" << CpuFeatureString() << "\",\n"
     << "  \"build\": \"" << BuildFlagsString() << "\",\n"
     << "  \"entries\": [\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    // Round-trip precision: small values (error bounds, ratios) survive.
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].wall_seconds);
    os << "    {\"name\": \"" << entries_[i].name << "\", \"wall_seconds\": "
       << value << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  SBRL_CHECK(out.good()) << "cannot open " << path << " for writing";
  out << os.str();
  out.flush();
  SBRL_CHECK(out.good()) << "failed writing " << path;
  return path;
}

}  // namespace bench
}  // namespace sbrl
