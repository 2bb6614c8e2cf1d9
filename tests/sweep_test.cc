// Tests of the experiment engine (eval/session.h + eval/sweep.h): the
// sweep-determinism contract (bitwise identical grids for any outer
// worker count and any pool size, identical to standalone per-cell
// fits), session tape-pool recycling, run-scoped timing attribution,
// and per-cell failure isolation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/session.h"
#include "eval/sweep.h"

namespace sbrl {
namespace {

// A tiny but fully featured plan: all nine methods x three seeds on a
// small synthetic OOD construction, a few iterations each, with a
// weight step every iteration so the SBRL/HAP cells exercise the RFF
// slot draws.
RunPlan TinyNineMethodPlan(int num_seeds) {
  RunPlan plan;
  plan.methods = AllNineMethods();
  for (int rep = 0; rep < num_seeds; ++rep) {
    plan.seeds.push_back(400 + static_cast<uint64_t>(rep) * 1000003);
  }
  plan.make_datasets = [](int64_t /*seed_index*/, uint64_t seed) {
    SyntheticDims dims;  // 8 / 8 / 8 / 2
    SyntheticModel model(dims, seed);
    CausalDataset pool = model.SampleEnvironment(180, 2.5, seed + 1);
    Rng split_rng(seed + 2);
    TrainValid tv = SplitTrainValid(pool, 0.75, split_rng);
    SweepDatasets data;
    data.train = std::move(tv.train);
    data.valid = std::move(tv.valid);
    data.tests.push_back(model.SampleEnvironment(100, 2.5, seed + 3));
    data.tests.push_back(model.SampleEnvironment(100, -3.0, seed + 4));
    return data;
  };
  plan.make_config = [](int64_t method_index, int64_t /*seed_index*/,
                        uint64_t seed) {
    EstimatorConfig config;
    config.network.rep_layers = 2;
    config.network.rep_width = 8;
    config.network.head_layers = 2;
    config.network.head_width = 6;
    config.train.iterations = 12;
    config.train.eval_every = 4;
    config.train.patience = 8;
    config.train.seed = seed + 100;
    config.sbrl.gamma1 = 1.0;
    config.sbrl.gamma2 = 0.01;
    config.sbrl.gamma3 = 0.01;
    config.sbrl.hsic_pair_budget = 8;
    return WithMethod(config, AllNineMethods()[static_cast<size_t>(
                                  method_index)]);
  };
  return plan;
}

// Every schedule-invariant float of a sweep grid: all eval metrics plus
// the deterministic parts of the diagnostics (loss curves, early-stop
// choice). Timings are wall clock and excluded by design.
std::vector<double> Fingerprint(const SweepResult& sweep) {
  std::vector<double> values;
  for (const auto& row : sweep.runs) {
    for (const RunResult& run : row) {
      EXPECT_TRUE(run.status.ok()) << run.status.ToString();
      for (const EvalResult& e : run.evals) {
        values.push_back(e.pehe);
        values.push_back(e.ate_error);
        values.push_back(e.f1_factual);
        values.push_back(e.f1_counterfactual);
      }
      for (double v : run.diag.train_loss) values.push_back(v);
      for (double v : run.diag.valid_loss) values.push_back(v);
      for (double v : run.diag.weight_loss) values.push_back(v);
      values.push_back(static_cast<double>(run.diag.best_iteration));
      for (double v : run.extra) values.push_back(v);
    }
  }
  return values;
}

SweepResult RunWithWorkers(const RunPlan& plan, int outer_workers) {
  ExperimentSession session;
  SweepOptions options;
  options.outer_workers = outer_workers;
  return RunSweep(plan, &session, options);
}

TEST(SweepTest, BitwiseIdenticalAcrossOuterWorkerCounts) {
  const RunPlan plan = TinyNineMethodPlan(/*num_seeds=*/3);
  const std::vector<double> reference = Fingerprint(RunWithWorkers(plan, 1));
  ASSERT_FALSE(reference.empty());
  for (int workers : {2, 4}) {
    EXPECT_EQ(Fingerprint(RunWithWorkers(plan, workers)), reference)
        << "sweep diverged at " << workers << " outer workers";
  }
  // 0 = resolve from env / pool parallelism; whatever it resolves to
  // must not change results either.
  EXPECT_EQ(Fingerprint(RunWithWorkers(plan, 0)), reference);
}

TEST(SweepTest, BitwiseIdenticalAcrossPoolSizes) {
  // Inner kernel parallelism (the global pool) and outer run
  // parallelism compose: any (pool, outer) combination must produce
  // the sequential single-lane grid.
  const RunPlan plan = TinyNineMethodPlan(/*num_seeds=*/1);
  const int restore_workers = ThreadPool::GlobalParallelism() - 1;
  ThreadPool::ResetGlobalForTest(0);
  const std::vector<double> reference = Fingerprint(RunWithWorkers(plan, 1));
  for (int pool_workers : {2, 4}) {
    ThreadPool::ResetGlobalForTest(pool_workers);
    for (int outer : {1, 2}) {
      EXPECT_EQ(Fingerprint(RunWithWorkers(plan, outer)), reference)
          << pool_workers << " pool workers, " << outer << " outer";
    }
  }
  ThreadPool::ResetGlobalForTest(restore_workers);
}

TEST(SweepTest, MatchesStandalonePerCellFits) {
  // The engine must reproduce what a caller gets from fitting every
  // cell by hand with owned (non-session) resources — pooling is
  // value-transparent.
  const RunPlan plan = TinyNineMethodPlan(/*num_seeds=*/2);
  const SweepResult sweep = RunWithWorkers(plan, 3);
  for (size_t s = 0; s < plan.seeds.size(); ++s) {
    const SweepDatasets data = plan.make_datasets(
        static_cast<int64_t>(s), plan.seeds[s]);
    std::vector<const CausalDataset*> tests;
    for (const CausalDataset& t : data.tests) tests.push_back(&t);
    for (size_t m = 0; m < plan.methods.size(); ++m) {
      const EstimatorConfig config = plan.make_config(
          static_cast<int64_t>(m), static_cast<int64_t>(s), plan.seeds[s]);
      auto results = TrainAndEvaluate(config, data.train, &data.valid,
                                      tests);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      const RunResult& run = sweep.runs[m][s];
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      ASSERT_EQ(run.evals.size(), results->size());
      for (size_t r = 0; r < run.evals.size(); ++r) {
        EXPECT_EQ(run.evals[r].pehe, (*results)[r].pehe)
            << plan.methods[m].name() << " seed " << plan.seeds[s];
        EXPECT_EQ(run.evals[r].ate_error, (*results)[r].ate_error);
        EXPECT_EQ(run.evals[r].f1_factual, (*results)[r].f1_factual);
        EXPECT_EQ(run.evals[r].f1_counterfactual,
                  (*results)[r].f1_counterfactual);
      }
    }
  }
}

TEST(SweepTest, SessionRecyclesResourceSets) {
  const RunPlan plan = TinyNineMethodPlan(/*num_seeds=*/2);
  ExperimentSession session;
  SweepOptions options;
  options.outer_workers = 2;
  const SweepResult sweep = RunSweep(plan, &session, options);
  ASSERT_EQ(sweep.outer_workers_used, 2);
  Fingerprint(sweep);  // asserts every cell succeeded
  // 18 runs through at most 2 concurrent lanes: leases must recycle.
  EXPECT_LE(session.resource_sets_created(), 2);
}

TEST(SweepTest, RffCosSecondsStaysWithinEachRun) {
  // Run-scoped timing attribution (the cross-run leak this PR fixes):
  // under a concurrent sweep, a run's cosine-sweep seconds must never
  // exceed its own training seconds — with a process-global counter a
  // run would absorb overlapping runs' sweep time and break this.
  const RunPlan plan = TinyNineMethodPlan(/*num_seeds=*/2);
  const SweepResult sweep = RunWithWorkers(plan, 2);
  for (const auto& row : sweep.runs) {
    for (const RunResult& run : row) {
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      EXPECT_GE(run.diag.rff_cos_seconds, 0.0);
      EXPECT_LE(run.diag.rff_cos_seconds, run.diag.train_seconds);
    }
  }
}

TEST(SweepTest, FailedCellIsIsolated) {
  RunPlan plan = TinyNineMethodPlan(/*num_seeds=*/1);
  auto make_config = plan.make_config;
  plan.make_config = [make_config](int64_t method_index, int64_t seed_index,
                                   uint64_t seed) {
    EstimatorConfig config = make_config(method_index, seed_index, seed);
    if (method_index == 4) config.train.iterations = -1;  // invalid
    return config;
  };
  const SweepResult sweep = RunWithWorkers(plan, 2);
  for (size_t m = 0; m < plan.methods.size(); ++m) {
    if (m == 4) {
      EXPECT_FALSE(sweep.runs[m][0].status.ok());
    } else {
      EXPECT_TRUE(sweep.runs[m][0].status.ok())
          << sweep.runs[m][0].status.ToString();
    }
  }
  // Aggregation skips the failed cell and works off the healthy ones.
  const ReplicationStats stats = AggregateCell(sweep, 0, 0);
  EXPECT_TRUE(stats.pehe.mean == stats.pehe.mean);  // finite, not NaN
}

}  // namespace
}  // namespace sbrl
