// Benchmarks the sharded deterministic training path
// (core/sharded_trainer.h) at production n: streams a synthetic
// environment of up to 10^6+ rows through the chunked generator
// (data/streaming.h), fits the row-separable TARNet configuration
// out-of-core, and records wall time, rows/sec, and peak RSS into
// BENCH_large_n.json (directory overridable via SBRL_BENCH_JSON_DIR).
//
// Two guards run at every scale before the big fit:
//   1. worker-count invariance — the same small stream fitted with
//      sharding.workers in {1, 2, 4} must produce bitwise identical
//      parameters (the FixedOrderTreeReducer contract);
//   2. source invariance — the in-core reader over the materialized
//      rows must fit bitwise identically to the streamed reader.
// Worker lanes then fit one pass over the big stream at shard workers
// {1, 2, 4}, recording rows/s and each lane's own peak RSS, and CHECK
// the peak against a bound derived from the resources it measures:
// base + workers x (lane arena + one wave's chunks), computed from
// shard rows and layer widths (PerWorkerBoundMb) — peak memory grows
// with shard size and worker count, never with n x d.
//
// Stats lane: one streamed column-moment + HSIC-RFF pass over the big
// stream with the kernel's peak-RSS watermark reset first (write "5"
// to /proc/self/clear_refs, read VmHWM back — ru_maxrss is lifetime-
// monotone and useless for phase deltas), recording its time and peak.
//
// Generator lane: single-thread SampleEnvironmentChunk loops, unbiased
// (rho = 1, what the streams above read) and biased (rho = 2.5, the
// rejection-sampled environments of the paper's tables), record the
// synthetic generator's own rows/s.

#include <malloc.h>
#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/sharded_trainer.h"
#include "data/streaming.h"
#include "eval/table_printer.h"
#include "harness.h"
#include "stats/sharded.h"

namespace sbrl {
namespace bench {
namespace {

// Lifetime peak resident set in MiB (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  struct rusage usage;
  SBRL_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Resets the kernel's peak-RSS watermark to the CURRENT resident set
// so the next VmHwmMb() read measures one phase's peak instead of the
// process lifetime's. Returns false when the proc interface is not
// writable (non-Linux, restricted container) — callers then skip the
// watermark-based guard.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f.good()) return false;
  f << "5";
  f.flush();
  return f.good();
}

// A KiB field of /proc/self/status in MiB, or -1 when unavailable.
double ProcStatusMb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return -1.0;
}

// VmHWM: peak resident set since the last watermark reset.
double VmHwmMb() { return ProcStatusMb("VmHWM:"); }

// ThreadSanitizer's shadow memory is resident beside every allocation,
// so under it the watermark measures the sanitizer as much as the
// shards: the RSS guards then only report, and the sanitized run
// checks races and the bitwise guards.
#if defined(__SANITIZE_THREAD__)
#define SBRL_BENCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SBRL_BENCH_TSAN 1
#endif
#endif
#ifdef SBRL_BENCH_TSAN
constexpr bool kRssGuards = false;
#else
constexpr bool kRssGuards = true;
#endif

ShardedTrainerConfig TrainerConfig(const Scale& scale, int64_t iterations) {
  ShardedTrainerConfig config;
  config.network.rep_layers = 2;
  config.network.rep_width = scale.rep_width;
  config.network.head_layers = 2;
  config.network.head_width = scale.head_width;
  config.iterations = iterations;
  config.seed = 1234;
  return config;
}

// MiB of one streamed chunk or wave block: (d + 3) doubles per row
// (x, y, mu0, mu1) plus the treatment int.
double BlockMb(int64_t rows, int64_t d) {
  return static_cast<double>(rows) *
         (static_cast<double>(d + 3) * sizeof(double) + sizeof(int)) /
         (1024.0 * 1024.0);
}

// Resident MiB one shard worker may add to a fit pass, derived from the
// shard shape and the TARNet layer widths (one representation stack,
// two outcome heads):
//  - its lane arena: a tape holds about (d + 2 x the summed layer
//    widths) doubles per row — the input copy plus each layer's affine
//    output and activation — given 25% headroom for loss columns and
//    operand copies. The lane's MatrixPool owns at most 3x that: the
//    tape in flight plus a free list capped at twice the demand
//    (tensor/pool.h);
//  - one wave's chunks: the block it fills and the chunk the reader
//    prefetched behind it;
//  - 50% allocator slack on the whole: storage the pool drops returns
//    to per-thread malloc arenas rather than to the OS.
double PerWorkerBoundMb(const ShardedTrainerConfig& config, int64_t d,
                        int64_t shard_rows) {
  const NetworkConfig& net = config.network;
  const double widths =
      static_cast<double>(net.rep_layers * net.rep_width +
                          2 * net.head_layers * net.head_width);
  const double tape_mb = 1.25 * (static_cast<double>(d) + 2.0 * widths) *
                         static_cast<double>(shard_rows) * sizeof(double) /
                         (1024.0 * 1024.0);
  return 1.5 * (3.0 * tape_mb + 2.0 * BlockMb(shard_rows, d));
}

std::vector<Matrix> FitParams(const SyntheticModel& model, int64_t rows,
                              const Scale& scale, int64_t workers) {
  SyntheticBlockReader reader(&model, rows, /*rho=*/2.5, /*env_seed=*/11,
                              /*chunk_rows=*/1024);
  ShardedTrainerConfig config = TrainerConfig(scale, /*iterations=*/3);
  config.sharding.shard_rows = 1024;
  config.sharding.workers = workers;
  ShardedTrainer trainer(config, model.dims().total());
  const Status trained = trainer.Train(reader);
  SBRL_CHECK(trained.ok()) << trained.ToString();
  std::vector<Matrix> params;
  trainer.CollectParamValues(&params);
  return params;
}

void CheckBitwiseEqual(const std::vector<Matrix>& a,
                       const std::vector<Matrix>& b, const char* what) {
  SBRL_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SBRL_CHECK(AllClose(a[i], b[i], /*tol=*/0.0))
        << what << ": parameter " << i << " differs";
  }
}

int Main() {
  const Scale scale = GetScale();
  PrintBanner("bench_large_n",
              "Sharded deterministic training at production n "
              "(streaming loader + fixed-order tree reduction)",
              scale);
  SyntheticDims dims;  // 8 / 8 / 8 / 2
  const SyntheticModel model(dims, /*seed=*/7);
  const int64_t d = dims.total();

  // ---- Guard 1: bitwise worker-count invariance (small stream). ----
  const int64_t guard_rows = 3000;
  const std::vector<Matrix> w1 = FitParams(model, guard_rows, scale, 1);
  for (const int64_t workers : {2, 4}) {
    const std::vector<Matrix> wn =
        FitParams(model, guard_rows, scale, workers);
    CheckBitwiseEqual(w1, wn, "worker-count invariance");
  }
  std::cerr << "guard: workers {1,2,4} bitwise identical\n";

  // ---- Guard 2: streamed fit == in-core fit, bitwise. ----
  {
    SyntheticBlockReader stream(&model, guard_rows, 2.5, 11, 1024);
    StatusOr<CausalDataset> incore = ReadAllRows(stream);
    SBRL_CHECK(incore.ok()) << incore.status().ToString();
    InMemoryBlockReader memory_reader(&*incore);
    ShardedTrainerConfig config = TrainerConfig(scale, 3);
    config.sharding.shard_rows = 1024;
    config.sharding.workers = 2;
    ShardedTrainer trainer(config, d);
    SBRL_CHECK(trainer.Train(memory_reader).ok());
    std::vector<Matrix> incore_params;
    trainer.CollectParamValues(&incore_params);
    const std::vector<Matrix> streamed =
        FitParams(model, guard_rows, scale, 2);
    CheckBitwiseEqual(streamed, incore_params, "stream-vs-incore");
    std::cerr << "guard: streamed == in-core, bitwise\n";
  }

  // ---- Generator lane: single-thread chunk generation rows/s. ----
  // Best of three passes, each over fresh chunk indices of one stream.
  const auto generation_rows_per_sec = [&](double rho, int64_t chunk_rows,
                                           int64_t chunks) {
    double best_seconds = 0.0;
    for (int64_t pass = 0; pass < 3; ++pass) {
      Timer timer;
      for (int64_t c = 0; c < chunks; ++c) {
        const CausalDataset chunk = model.SampleEnvironmentChunk(
            chunk_rows, rho, /*env_seed=*/5, pass * chunks + c);
        SBRL_CHECK_EQ(chunk.n(), chunk_rows);
      }
      const double seconds = timer.ElapsedSeconds();
      if (pass == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    SBRL_CHECK_GT(best_seconds, 0.0);
    return static_cast<double>(chunk_rows * chunks) / best_seconds;
  };
  const bool smoke = scale.name == "smoke";
  const double gen_unbiased_rps =
      generation_rows_per_sec(/*rho=*/1.0, /*chunk_rows=*/4096, smoke ? 4 : 16);
  const double gen_biased_rps =
      generation_rows_per_sec(/*rho=*/2.5, /*chunk_rows=*/1024, smoke ? 1 : 4);
  std::cerr << "generator: unbiased " << FormatDouble(gen_unbiased_rps, 0)
            << " rows/s, biased (rho 2.5) " << FormatDouble(gen_biased_rps, 0)
            << " rows/s\n";

  // ---- The large-n fit. ----
  const int64_t big_rows = scale.name == "smoke"
                               ? 20000
                               : (scale.name == "full" ? 2000000 : 1000000);
  const int64_t iterations = scale.name == "smoke" ? 2 : 4;
  const int64_t shard_rows = 8192;

  // ---- Stats lane: streamed column moments + HSIC-RFF. ----
  // Runs BEFORE the big fit so the watermark delta reflects the staged
  // waves, not the trainer's pools: release freed heap back to the OS,
  // reset the watermark, stream one ColumnMoments + HSIC-RFF pass over
  // the big stream, read VmHWM back.
  //
  // The worker count is PINNED at 8, independent of the host's core
  // count: what the lane measures is wave residency (workers x
  // shard_rows x d staged bytes). Worker count never changes a bit of
  // the result (ShardedReduce's contract), so pinning it only shapes
  // the memory profile being measured.
  const int64_t stats_workers = 8;
  double stats_peak = -1.0;
  double stats_seconds = 0.0;
  {
    ShardedOptions sopts;
    sopts.shard_rows = shard_rows;
    sopts.workers = stats_workers;
    SyntheticBlockReader stats_reader(&model, big_rows, /*rho=*/1.0,
                                      /*env_seed=*/42, shard_rows);
    malloc_trim(0);
    const bool watermark_ok = ResetPeakRss();
    Timer stats_timer;
    StatusOr<ColumnMoments> moments =
        ShardedColumnMoments(stats_reader, sopts);
    SBRL_CHECK(moments.ok()) << moments.status().ToString();
    SBRL_CHECK(stats_reader.Reset().ok());
    StatusOr<double> hsic =
        ShardedHsicRff(stats_reader, /*col_a=*/d - dims.m_v, kOutcomeColumn,
                       /*num_features=*/8, /*draw_seed=*/99, sopts);
    SBRL_CHECK(hsic.ok()) << hsic.status().ToString();
    stats_seconds = stats_timer.ElapsedSeconds();
    if (watermark_ok) stats_peak = VmHwmMb();
  }
  std::cerr << "stats lane: " << FormatDouble(stats_seconds, 2)
            << "s peak " << FormatDouble(stats_peak, 1) << " MiB\n";

  // ---- Worker lanes: fit rows/s and peak RSS per shard-worker count. ----
  // One pass per lane over the big stream, each with its own
  // watermark reset, so the peaks are the lanes' own.
  // The peak must stay under the memory the lane's workers account for
  // on top of the resident set it started from and the reader's own
  // chunk buffer: base + workers x PerWorkerBoundMb.
  struct WorkerLane {
    int64_t workers = 0;
    double rows_per_sec = 0.0;
    double peak_mb = -1.0;
    double bound_mb = -1.0;
  };
  std::vector<WorkerLane> lanes;
  for (const int64_t workers : {1, 2, 4}) {
    ShardedTrainerConfig lane_config = TrainerConfig(scale, /*iterations=*/1);
    lane_config.sharding.shard_rows = shard_rows;
    lane_config.sharding.workers = workers;
    SyntheticBlockReader lane_reader(&model, big_rows, /*rho=*/1.0,
                                     /*env_seed=*/42, shard_rows);
    WorkerLane lane;
    lane.workers = workers;
    malloc_trim(0);
    const bool reset = ResetPeakRss();
    const double base_mb = ProcStatusMb("VmRSS:");
    ShardedTrainer lane_trainer(lane_config, d);
    ShardedTrainDiagnostics lane_diag;
    const Status lane_trained = lane_trainer.Train(lane_reader, &lane_diag);
    SBRL_CHECK(lane_trained.ok()) << lane_trained.ToString();
    lane.rows_per_sec = lane_diag.rows_per_second;
    std::cerr << "worker lane " << workers << ": "
              << FormatDouble(lane.rows_per_sec, 0) << " rows/s";
    if (reset && base_mb >= 0.0) {
      lane.peak_mb = VmHwmMb();
      lane.bound_mb =
          base_mb + BlockMb(shard_rows, d) +
          static_cast<double>(workers) *
              PerWorkerBoundMb(lane_config, d, shard_rows);
      std::cerr << ", peak " << FormatDouble(lane.peak_mb, 1)
                << " MiB (bound " << FormatDouble(lane.bound_mb, 1) << ")";
      if (kRssGuards) {
        SBRL_CHECK_LT(lane.peak_mb, lane.bound_mb)
            << "peak RSS at " << workers
            << " shard workers exceeds what its workers account for";
      }
    }
    std::cerr << "\n";
    lanes.push_back(lane);
  }

  ShardedTrainerConfig config = TrainerConfig(scale, iterations);
  config.sharding.shard_rows = shard_rows;
  // Unbiased stream (rho = 1.0): biased rejection at rho = 2.5 keeps
  // ~a third of draws — fine for guards, wasteful at 10^6 rows.
  SyntheticBlockReader reader(&model, big_rows, /*rho=*/1.0,
                              /*env_seed=*/42, /*chunk_rows=*/shard_rows);
  ShardedTrainer trainer(config, d);
  ShardedTrainDiagnostics diag;
  Timer fit_timer;
  const Status trained = trainer.Train(reader, &diag);
  SBRL_CHECK(trained.ok()) << trained.ToString();
  const double fit_seconds = fit_timer.ElapsedSeconds();

  StatusOr<double> ate = trainer.EstimateAte(reader);
  SBRL_CHECK(ate.ok()) << ate.status().ToString();

  // Streamed HSIC-RFF between the first unstable covariate and the
  // outcome — the paper's spurious-correlation statistic, computed at
  // full n from tree-reduced block moments.
  Timer hsic_timer;
  SBRL_CHECK(reader.Reset().ok());
  ShardedOptions hsic_options;
  hsic_options.shard_rows = shard_rows;
  StatusOr<double> hsic_vy = ShardedHsicRff(
      reader, /*col_a=*/d - dims.m_v, kOutcomeColumn,
      /*num_features=*/8, /*draw_seed=*/99, hsic_options);
  SBRL_CHECK(hsic_vy.ok()) << hsic_vy.status().ToString();
  const double hsic_seconds = hsic_timer.ElapsedSeconds();

  const double rss_after_mb = PeakRssMb();
  // What the same sample would cost fully materialized.
  const double incore_mb = BlockMb(big_rows, d);

  TablePrinter table({"metric", "value"});
  table.AddRow({"rows", std::to_string(big_rows)});
  table.AddRow({"passes", std::to_string(iterations)});
  table.AddRow({"shards/pass", std::to_string(diag.shards)});
  table.AddRow({"fit seconds", FormatDouble(fit_seconds, 3)});
  table.AddRow({"rows/sec", FormatDouble(diag.rows_per_second, 0)});
  table.AddRow({"peak RSS MiB", FormatDouble(rss_after_mb, 1)});
  table.AddRow({"in-core MiB (for comparison)", FormatDouble(incore_mb, 1)});
  table.AddRow({"streamed ATE", FormatDouble(*ate, 4)});
  table.AddRow({"HSIC_RFF(V0, Y)", FormatDouble(*hsic_vy, 6)});
  for (const WorkerLane& lane : lanes) {
    const std::string w = std::to_string(lane.workers);
    table.AddRow({"fit rows/sec, " + w + " shard workers",
                  FormatDouble(lane.rows_per_sec, 0)});
    table.AddRow({"peak RSS MiB, " + w + " shard workers (bound)",
                  FormatDouble(lane.peak_mb, 1) + " (" +
                      FormatDouble(lane.bound_mb, 1) + ")"});
  }
  table.AddRow({"synthetic unbiased rows/sec, 1 thread",
                FormatDouble(gen_unbiased_rps, 0)});
  table.AddRow({"synthetic biased (rho 2.5) rows/sec, 1 thread",
                FormatDouble(gen_biased_rps, 0)});
  table.AddRow({"stats seconds", FormatDouble(stats_seconds, 3)});
  table.AddRow({"stats peak MiB", FormatDouble(stats_peak, 1)});
  table.Print(std::cout);

  BenchJsonWriter json("large_n", scale);
  json.Record("large_n/rows", static_cast<double>(big_rows));
  json.Record("large_n/fit_seconds", fit_seconds);
  json.Record("large_n/rows_per_sec", diag.rows_per_second);
  json.Record("large_n/peak_rss_mb", rss_after_mb);
  json.Record("large_n/incore_equiv_mb", incore_mb);
  json.Record("large_n/hsic_seconds", hsic_seconds);
  json.Record("large_n/stats_f64_seconds", stats_seconds);
  if (stats_peak >= 0.0) {
    json.Record("large_n/stats_f64_peak_rss_mb", stats_peak);
  }
  json.Record("large_n/synthetic_unbiased_rows_per_sec", gen_unbiased_rps);
  json.Record("large_n/synthetic_biased_rows_per_sec", gen_biased_rps);
  for (const WorkerLane& lane : lanes) {
    const std::string prefix =
        "large_n/workers" + std::to_string(lane.workers) + "/";
    json.Record(prefix + "rows_per_sec", lane.rows_per_sec);
    if (lane.peak_mb >= 0.0) {
      json.Record(prefix + "peak_rss_mb", lane.peak_mb);
      json.Record(prefix + "rss_bound_mb", lane.bound_mb);
    }
  }
  std::cout << "wrote " << json.WriteOrDie() << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sbrl

int main() { return sbrl::bench::Main(); }
