#ifndef SBRL_BENCH_HARNESS_H_
#define SBRL_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/sweep.h"

namespace sbrl {
namespace bench {

/// Experiment scale. The paper's hardware (48-core EPYC, TensorFlow,
/// 3000 iterations, up to 100 replications) is replaced by scaled-down
/// defaults that preserve orderings and trends; set the environment
/// variable SBRL_BENCH_SCALE to "smoke" (seconds, CI), "default", or
/// "full" (closer to paper scale, minutes per table).
struct Scale {
  std::string name = "default";
  int64_t n_train = 500;
  int64_t n_valid = 200;
  int64_t n_test = 400;
  int64_t iterations = 150;
  int replications = 2;
  int64_t rep_width = 32;
  int64_t head_width = 16;
};

/// Reads SBRL_BENCH_SCALE and returns the corresponding scale.
Scale GetScale();

/// Base estimator configuration shared by the synthetic benches,
/// following the structure of the paper's Table IV settings at the
/// bench scale.
EstimatorConfig BaseConfig(const Scale& scale, uint64_t seed);

/// The paper's test-environment grid (Sec. V-D).
std::vector<double> PaperRhoGrid();

/// Per-method, per-environment, per-replication results of a synthetic
/// OOD sweep. cells[m][r] holds one EvalResult per replication for
/// method m evaluated on environment rho_grid[r].
struct SweepOutput {
  std::vector<MethodSpec> methods;
  std::vector<double> rho_grid;
  std::vector<std::vector<std::vector<EvalResult>>> cells;
};

/// The synthetic OOD experiment as a declarative RunPlan for the sweep
/// engine: `scale.replications` seeds derived from `seed`, training on
/// the rho = +2.5 environment and evaluating across `rho_grid`. The
/// plan RunSyntheticSweep executes; exposed so the sweep bench can run
/// the identical plan at several outer-worker counts.
RunPlan SyntheticRunPlan(const SyntheticDims& dims,
                         const std::vector<MethodSpec>& methods,
                         const std::vector<double>& rho_grid,
                         const Scale& scale, uint64_t seed);

/// Trains every method on the rho = +2.5 environment of `dims` and
/// evaluates across the rho grid, repeated `scale.replications` times
/// with distinct seeds, scheduled on the in-process experiment engine
/// (eval/sweep.h). Prints progress to stderr.
SweepOutput RunSyntheticSweep(const SyntheticDims& dims,
                              const std::vector<MethodSpec>& methods,
                              const std::vector<double>& rho_grid,
                              const Scale& scale, uint64_t seed);

/// Formats "mean ±std" over the replications of one metric in a cell.
std::string CellPehe(const std::vector<EvalResult>& runs);
std::string CellAte(const std::vector<EvalResult>& runs);

/// A scratch file name in the working directory unique to this process
/// ("<stem>.<pid>.tmp"), so concurrent runs of a bench never share it.
std::string ProcessScratchPath(const std::string& stem);

/// Prints the standard bench banner (experiment id, scale, caveat).
void PrintBanner(const std::string& experiment,
                 const std::string& paper_artifact, const Scale& scale);

/// Machine-readable timing output: collects named wall-clock timings and
/// writes them as BENCH_<bench_id>.json so the perf trajectory of every
/// bench is tracked across PRs. The output directory defaults to the
/// working directory and can be overridden with SBRL_BENCH_JSON_DIR.
///
/// Alongside the timings, every file records the run metadata that
/// makes numbers comparable across hosts: the resolved kernel ISA
/// ("isa"), the detected CPU feature set ("cpu"), the worker-lane
/// count ("threads"), and the compiler + flags of the build ("build").
/// A perf delta without a matching metadata delta is a real
/// regression; one with a different ISA or host is not comparable.
///
/// Every recorded timing is CHECKed finite and non-negative at write
/// time, which is what the ctest smoke perf guard relies on to fail on
/// broken timing paths. Values are written at round-trip precision
/// (`%.17g`), so a recorded error bound of 6e-7 reads back as itself.
class BenchJsonWriter {
 public:
  BenchJsonWriter(std::string bench_id, const Scale& scale);

  /// Adds one timing entry (seconds of wall clock).
  void Record(const std::string& name, double wall_seconds);

  /// Validates all entries and writes BENCH_<bench_id>.json, returning
  /// the path written. CHECK-fails on non-finite timings or I/O errors.
  std::string WriteOrDie() const;

  int64_t entry_count() const { return static_cast<int64_t>(entries_.size()); }

 private:
  struct Entry {
    std::string name;
    double wall_seconds;
  };

  std::string bench_id_;
  std::string scale_name_;
  std::vector<Entry> entries_;
};

}  // namespace bench
}  // namespace sbrl

#endif  // SBRL_BENCH_HARNESS_H_
