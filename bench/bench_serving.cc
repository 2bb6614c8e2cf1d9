// Benchmarks the CATE serving stack end to end: trains CFR + SBRL-HAP
// at the bench scale, exports it (with a fitted OOD detector) through
// the on-disk model format, reloads it as a ServingModel, CHECKs that
// micro-batched serving is bitwise equal to direct scoring, and then
// drives the MicroBatcher with concurrent client threads, recording
// per-request p50/p99 latency and sustained throughput at each client
// count into BENCH_serving.json (directory overridable via
// SBRL_BENCH_JSON_DIR).
//
// Direct lane: the forward alone is also timed on DIRECT batch scoring
// (the micro-batched p50 includes the batcher's linger window).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/estimator.h"
#include "core/ood_detector.h"
#include "eval/table_printer.h"
#include "harness.h"
#include "serve/micro_batcher.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"

namespace sbrl {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sorted-sample quantile at `q` in [0, 1] (nearest-rank on the sorted
/// latencies, matching the repo's index = floor(q * (n - 1)) idiom).
double Quantile(const std::vector<double>& sorted, double q) {
  SBRL_CHECK(!sorted.empty());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

// Keeps the timed scoring loops from being optimized away.
volatile double g_sink = 0.0;

/// Times `reps` direct ScoreOutcomes calls over `queries` and returns
/// their per-call latencies (one warm-up call runs first, untimed).
std::vector<double> TimeDirectScoring(const serve::ServingModel& model,
                                      const Matrix& queries, int reps) {
  g_sink = g_sink + model.ScoreOutcomes(queries)[0];
  std::vector<double> latencies;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const Matrix out = model.ScoreOutcomes(queries);
    latencies.push_back(SecondsSince(start));
    g_sink = g_sink + out[0];
  }
  return latencies;
}

int Main() {
  const Scale scale = GetScale();
  PrintBanner("bench_serving",
              "CATE serving engine — export/reload parity + micro-batched "
              "latency and throughput under concurrent clients",
              scale);

  // Train the flagship method on the paper's training environment and
  // fit the OOD detector on the same covariates the model saw.
  SyntheticDims dims;
  SyntheticModel synthetic(dims, /*seed=*/81);
  const CausalDataset train =
      synthetic.SampleEnvironment(scale.n_train, 2.5, 82);
  const CausalDataset valid =
      synthetic.SampleEnvironment(scale.n_valid, 2.5, 83);
  MethodSpec spec{BackboneKind::kCfr, FrameworkKind::kSbrlHap};
  std::cerr << "[bench_serving] training " << spec.name() << "...\n";
  StatusOr<HteEstimator> estimator =
      HteEstimator::Create(WithMethod(BaseConfig(scale, 84), spec));
  SBRL_CHECK(estimator.ok()) << estimator.status().ToString();
  SBRL_CHECK(estimator->Fit(train, &valid).ok());
  StatusOr<OodLevelDetector> detector = OodLevelDetector::Fit(train.x);
  SBRL_CHECK(detector.ok()) << detector.status().ToString();

  // Export through the real on-disk format and serve from the reload.
  const std::string model_path = ProcessScratchPath("BENCH_serving_model");
  SBRL_CHECK(
      serve::ExportServingModel(*estimator, &*detector, model_path).ok());
  StatusOr<serve::ServingModel> model = serve::ServingModel::Load(model_path);
  SBRL_CHECK(model.ok()) << model.status().ToString();
  std::remove(model_path.c_str());

  // Request stream: the far-OOD environment, the serving-time
  // population a stable estimator exists for.
  const Matrix queries = synthetic.SampleEnvironment(scale.n_test, -2.5, 85).x;
  const int64_t dim = queries.cols();

  // Parity gate: the served scores must be bitwise equal to the
  // estimator's predictions before any timing is worth recording.
  {
    const Matrix predicted = estimator->PredictPotentialOutcomes(queries);
    const Matrix served = model->ScoreOutcomes(queries);
    for (int64_t i = 0; i < predicted.size(); ++i) {
      SBRL_CHECK(served[i] == predicted[i])
          << "serving diverged from the estimator at element " << i;
    }
  }
  const std::vector<serve::ServingModel::RowScore> reference =
      model->ScoreRows(queries);

  const int64_t requests_per_client =
      scale.name == "smoke" ? 200 : (scale.name == "full" ? 4000 : 1000);
  BenchJsonWriter json("serving", scale);

  // ---- Direct lane: batch scoring without the batcher. ----
  {
    // Timing batch: a tiny smoke batch is overhead-bound and says
    // nothing about the forward, so the lane tiles the query set up to
    // a fixed batch size before timing.
    const int64_t lane_rows = std::max<int64_t>(queries.rows(), 4096);
    Matrix lane_queries(lane_rows, dim);
    for (int64_t i = 0; i < lane_rows; ++i) {
      const int64_t q = i % queries.rows();
      for (int64_t j = 0; j < dim; ++j) lane_queries(i, j) = queries(q, j);
    }
    const int reps = scale.name == "smoke" ? 10 : 40;
    std::vector<double> latencies =
        TimeDirectScoring(*model, lane_queries, reps);
    std::sort(latencies.begin(), latencies.end());
    const double p50 = Quantile(latencies, 0.50);
    const double rows_per_sec = static_cast<double>(lane_rows) / p50;
    json.Record("serving/direct_f64/p50", p50);
    json.Record("serving/direct_f64/rows_per_sec", rows_per_sec);
    std::cout << "direct scoring (" << lane_rows << " rows/batch): "
              << p50 * 1e6 << " us p50, "
              << FormatDouble(rows_per_sec, 0) << " rows/sec\n";
  }
  TablePrinter table({"clients", "requests", "p50 us", "p99 us", "rows/sec",
                      "batches"});
  for (const int64_t clients : {1, 2, 4}) {
    serve::MicroBatcher::Options options;
    options.ood = true;
    serve::MicroBatcher batcher(&*model, options);

    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    std::vector<std::thread> workers;
    const auto start = Clock::now();
    for (int64_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        std::vector<double>& mine = latencies[static_cast<size_t>(c)];
        mine.reserve(static_cast<size_t>(requests_per_client));
        std::vector<double> row(static_cast<size_t>(dim));
        for (int64_t r = 0; r < requests_per_client; ++r) {
          // Clients cycle through the query set at offset strides.
          const int64_t q = (c * 131 + r) % queries.rows();
          for (int64_t d = 0; d < dim; ++d) row[static_cast<size_t>(d)] =
              queries(q, d);
          const auto sent = Clock::now();
          const serve::ServingModel::RowScore score = batcher.ScoreRow(row);
          mine.push_back(SecondsSince(sent));
          // Coalescing must never change a bit of the answer.
          const serve::ServingModel::RowScore& want =
              reference[static_cast<size_t>(q)];
          SBRL_CHECK(score.y0 == want.y0 && score.y1 == want.y1)
              << "micro-batched result diverged at query " << q;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double wall = SecondsSince(start);
    batcher.Shutdown();

    std::vector<double> all;
    for (const std::vector<double>& mine : latencies) {
      all.insert(all.end(), mine.begin(), mine.end());
    }
    std::sort(all.begin(), all.end());
    const double p50 = Quantile(all, 0.50);
    const double p99 = Quantile(all, 0.99);
    const double total_rows =
        static_cast<double>(clients * requests_per_client);
    const double throughput = total_rows / wall;

    const std::string prefix = "serving/clients=" + std::to_string(clients);
    json.Record(prefix + "/p50", p50);
    json.Record(prefix + "/p99", p99);
    json.Record(prefix + "/wall", wall);
    json.Record(prefix + "/rows_per_sec", throughput);
    table.AddRow({std::to_string(clients),
                  std::to_string(clients * requests_per_client),
                  FormatDouble(p50 * 1e6, 1), FormatDouble(p99 * 1e6, 1),
                  FormatDouble(throughput, 0),
                  std::to_string(batcher.batches_dispatched())});
  }
  table.Print(std::cout);
  std::cout << "\nEvery micro-batched response was bitwise identical to "
               "direct scoring (verified per request).\n";
  std::cerr << "wrote " << json.WriteOrDie() << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sbrl

int main() { return sbrl::bench::Main(); }
