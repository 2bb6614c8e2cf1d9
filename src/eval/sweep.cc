#include "eval/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/env.h"
#include "common/thread_pool.h"

namespace sbrl {

namespace {

// Lane count: explicit option > SBRL_SWEEP_WORKERS env > global pool
// parallelism, clamped to [1, total_runs].
int ResolveOuterWorkers(const SweepOptions& options, int64_t total_runs) {
  int64_t workers = options.outer_workers;
  if (workers <= 0) {
    workers = ParseEnvInt64("SBRL_SWEEP_WORKERS", /*min_value=*/1,
                            /*fallback=*/0);
  }
  if (workers <= 0) workers = ThreadPool::GlobalParallelism();
  return static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(workers, total_runs)));
}

// Trains and evaluates one (method, seed) cell on session-leased
// resources. Pure in its coordinates: touches only `*out` and the
// read-only datasets, so cells can run in any order on any thread.
void RunOne(const RunPlan& plan, const std::vector<SweepDatasets>& data,
            ExperimentSession* session, int64_t method_index,
            int64_t seed_index, RunResult* out) {
  const uint64_t seed = plan.seeds[static_cast<size_t>(seed_index)];
  const SweepDatasets& d = data[static_cast<size_t>(seed_index)];
  EstimatorConfig config = plan.make_config(method_index, seed_index, seed);
  StatusOr<HteEstimator> estimator = HteEstimator::Create(config);
  if (!estimator.ok()) {
    out->status = estimator.status();
    return;
  }
  ExperimentSession::RunLease lease = session->AcquireRun();
  const Status fit = estimator->Fit(
      d.train, d.use_valid ? &d.valid : nullptr, lease.tape_pool());
  if (!fit.ok()) {
    out->status = fit;
    return;
  }
  out->diag = estimator->diagnostics();
  out->evals.reserve(d.tests.size());
  for (const CausalDataset& test : d.tests) {
    out->evals.push_back(EvaluateEstimator(*estimator, test));
  }
  if (plan.post_fit) {
    plan.post_fit(method_index, seed_index, *estimator, out);
  }
}

}  // namespace

ReplicationStats AggregateCell(const SweepResult& result,
                               int64_t method_index, int64_t test_index) {
  std::vector<EvalResult> ok_runs;
  const std::vector<RunResult>& row =
      result.runs[static_cast<size_t>(method_index)];
  ok_runs.reserve(row.size());
  for (const RunResult& run : row) {
    if (!run.status.ok()) continue;
    ok_runs.push_back(run.evals[static_cast<size_t>(test_index)]);
  }
  SBRL_CHECK(!ok_runs.empty())
      << "every replication of method " << method_index << " failed";
  return AggregateReplications(ok_runs);
}

SweepResult RunSweep(const RunPlan& plan, ExperimentSession* session,
                     const SweepOptions& options) {
  SBRL_CHECK(session != nullptr);
  SBRL_CHECK(!plan.methods.empty());
  SBRL_CHECK(!plan.seeds.empty());
  SBRL_CHECK(plan.make_datasets != nullptr);
  SBRL_CHECK(plan.make_config != nullptr);
  const int64_t num_methods = static_cast<int64_t>(plan.methods.size());
  const int64_t num_seeds = static_cast<int64_t>(plan.seeds.size());
  const int64_t total_runs = num_methods * num_seeds;

  const auto t0 = std::chrono::steady_clock::now();

  // Datasets once per seed, sequentially, before any run — every run of
  // a replication shares the same read-only bundle.
  std::vector<SweepDatasets> data;
  data.reserve(static_cast<size_t>(num_seeds));
  for (int64_t s = 0; s < num_seeds; ++s) {
    data.push_back(plan.make_datasets(s, plan.seeds[static_cast<size_t>(s)]));
  }

  SweepResult result;
  result.outer_workers_used = ResolveOuterWorkers(options, total_runs);
  result.runs.assign(static_cast<size_t>(num_methods),
                     std::vector<RunResult>(static_cast<size_t>(num_seeds)));

  // Run index r decomposes as (seed_index, method_index) with the
  // method fastest: one replication's methods are adjacent.
  auto run_cell = [&](int64_t r) {
    const int64_t seed_index = r / num_methods;
    const int64_t method_index = r % num_methods;
    RunResult* out = &result.runs[static_cast<size_t>(method_index)]
                                 [static_cast<size_t>(seed_index)];
    RunOne(plan, data, session, method_index, seed_index, out);
    if (options.progress) {
      // One pre-formatted write per run: interleaving-safe enough for a
      // progress line without serializing the lanes.
      std::string line =
          "  [sweep] " +
          plan.methods[static_cast<size_t>(method_index)].name() + " seed " +
          std::to_string(plan.seeds[static_cast<size_t>(seed_index)]) +
          (out->status.ok() ? "" : " FAILED: " + out->status.ToString()) +
          "\n";
      std::cerr << line;
    }
  };

  if (result.outer_workers_used <= 1) {
    // Sequential reference schedule: grid order, inner kernel
    // parallelism stays available to each run.
    for (int64_t r = 0; r < total_runs; ++r) run_cell(r);
  } else {
    // W lanes pull run indices from a shared counter. Each lane's
    // ParallelFor chunk is inside a pool job, so every ParallelFor a
    // run issues serial-inlines — one thread per run, no
    // oversubscription, and bitwise-identical cells regardless of
    // which lane claims them.
    std::atomic<int64_t> next{0};
    ParallelFor(0, result.outer_workers_used, 1,
                [&](int64_t lane_lo, int64_t lane_hi) {
                  (void)lane_lo;
                  (void)lane_hi;
                  for (;;) {
                    const int64_t r = next.fetch_add(1);
                    if (r >= total_runs) break;
                    run_cell(r);
                  }
                });
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace sbrl
