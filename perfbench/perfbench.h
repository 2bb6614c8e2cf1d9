#ifndef SBRL_PERFBENCH_PERFBENCH_H_
#define SBRL_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Settings of one benchmark run, from the command line.
struct RunSettings {
  /// Workload name (see kWorkloads in main.cc).
  std::string workload;
  /// Seed every input of the run is derived from.
  uint64_t seed = 0;
  /// Length of the timed loop in seconds.
  double seconds = 10.0;
  /// Per-layer run (true) or end-to-end run (false).
  bool trace = false;
  /// Directory for temporary files (the exported serving model).
  std::string scratch_dir = ".";
};

/// What one workload run measured.
struct WorkloadResult {
  /// False once any output check failed.
  bool correct = true;
  /// Timed operations started.
  int64_t attempted = 0;
  /// Timed operations that returned an error or failed a check.
  int64_t failed = 0;
  /// Latency of every timed operation, in seconds.
  std::vector<double> op_seconds;
  /// Wall time of the whole timed loop, in seconds.
  double measured_seconds = 0.0;
  /// Input rows processed by the timed loop (a row counts once per
  /// training iteration or streamed pass that reads it).
  double rows = 0.0;
  /// Duration of each set-up repetition, in seconds.
  std::vector<double> setup_seconds;
  /// Per-layer metrics by name; names not set read as 0.
  std::map<std::string, double> layer;

  /// Records a failed check: marks the run incorrect and prints why.
  void Fail(const std::string& what);
};

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// Runs one workload: inputs, set-ups, timed loop and checks (see
/// README.md for what each one measures).
WorkloadResult RunFit(const RunSettings& settings);
WorkloadResult RunSweep(const RunSettings& settings);
WorkloadResult RunServe(const RunSettings& settings);
WorkloadResult RunStream(const RunSettings& settings);

}  // namespace perfbench

#endif  // SBRL_PERFBENCH_PERFBENCH_H_
