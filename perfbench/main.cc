// Benchmark program: runs one workload and prints its metrics as the
// last line of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> [--scratch-dir <dir>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (README.md defines both). Exits 2 on bad arguments and 1 when a
// workload throws, printing no result in either case.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunSettings&);
};

const Workload kWorkloads[] = {
    {"fit", RunFit},
    {"sweep", RunSweep},
    {"serve", RunServe},
    {"stream", RunStream},
};

/// Worker lanes of the library's thread pool (and so of the sweep's
/// outer workers and the sharded waves) in every workload. Two lanes
/// exercise every parallel path while leaving half of a 4-core shared
/// host free, so a co-tenant's burst does not stall whole waves: at
/// four lanes the stream workload's run-to-run spread doubled.
constexpr char kLanes[] = "2";

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. A workload that does not
/// pass through a layer reports 0 for it.
const MetricSpec kLayerMetrics[] = {
    {"train_net_step_ms", "ms"},      {"train_weight_step_ms", "ms"},
    {"train_rff_cos_ms", "ms"},       {"train_health_ms", "ms"},
    {"train_other_ms", "ms"},         {"predict_ms", "ms"},
    {"data_gen_ms", "ms"},            {"sweep_lane_busy_ratio", "ratio"},
    {"sweep_slowest_cell_ms", "ms"},  {"serve_load_ms", "ms"},
    {"serve_forward_us", "us"},       {"serve_ood_us", "us"},
    {"serve_wait_us", "us"},          {"stream_read_pass_ms", "ms"},
    {"stream_train_pass_ms", "ms"},   {"stream_ate_pass_ms", "ms"},
    {"stream_moments_pass_ms", "ms"}, {"stream_hsic_pass_ms", "ms"},
};

/// Peak resident set of this process in MiB (VmHWM), or -1.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool ParseArgs(int argc, char** argv, RunSettings* settings) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      settings->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      settings->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (key == "--seconds") {
      settings->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && settings->seconds > 0.0;
    } else if (key == "--trace") {
      settings->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--scratch-dir") {
      settings->scratch_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

int Main(int argc, char** argv) {
  RunSettings settings;
  if (!ParseArgs(argc, argv, &settings)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch-dir <dir>]\n";
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (settings.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << settings.workload << "'\n";
    return 2;
  }

  ::setenv("SBRL_NUM_THREADS", kLanes, 1);
  WorkloadResult result = workload->run(settings);

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (settings.trace) {
    for (const MetricSpec& spec : kLayerMetrics) {
      const auto it = result.layer.find(spec.name);
      metrics.push_back({spec, it == result.layer.end() ? 0.0 : it->second});
      if (it != result.layer.end()) result.layer.erase(it);
    }
    if (!result.layer.empty()) {
      std::cerr << "undeclared per-layer metric '"
                << result.layer.begin()->first << "'\n";
      return 1;
    }
  } else {
    const double throughput =
        result.measured_seconds > 0.0 ? result.rows / result.measured_seconds
                                      : 0.0;
    metrics.push_back({{"latency_p50_ms", "ms"},
                       Median(result.op_seconds) * 1e3});
    metrics.push_back({{"throughput_rows_per_s", "rows/s"}, throughput});
    metrics.push_back({{"peak_rss_mib", "MiB"}, PeakRssMib()});
    metrics.push_back({{"setup_s", "s"}, Median(result.setup_seconds)});
  }

  std::string json = "{\"correct\": ";
  json += result.correct && result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(metrics[i].first.name) + "\": {\"value\": " +
            Number(metrics[i].second) + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
