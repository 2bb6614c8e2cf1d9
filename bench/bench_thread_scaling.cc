// Thread-scaling and ISA-dispatch microbenchmark of the training hot
// kernels. Two sweeps, both written to BENCH_thread_scaling.json:
//
//  1. Worker-lane sweep (1, 2, 4, ... up to the hardware concurrency,
//     via ThreadPool::ResetGlobalForTest): the tiled Matmul at a large
//     and a skinny shape plus the L_D weight-step micro (d = 32,
//     n = 1000, forward + dw backward — the ROADMAP's reference micro),
//     so the multi-core speedup of the parallel backend can finally be
//     measured on a real host. On a single-core container the extra
//     lanes only measure oversubscription overhead — run this on a
//     multi-core box for the numbers the ROADMAP asks for.
//  2. Per-ISA sweep at one lane of the same workloads (every level the
//     host supports, forced via SetActiveIsa), isolating the kernel-
//     width win from thread scaling.
//
// The serial-cutoff knob (SBRL_SERIAL_CUTOFF / SetSerialCutoff) applies
// to every timing here; sweeping it is how grain sizes get tuned.

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/independence_regularizer.h"
#include "harness.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace bench {
namespace {

volatile double g_sink = 0.0;

/// Best-of-`reps` wall time of `op` (after one warm-up call).
double TimeBest(const std::function<double()>& op, int reps) {
  (void)op();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    g_sink = g_sink + op();
    const double s = t.ElapsedSeconds();
    if (s < best) best = s;
  }
  return best;
}

/// One forward + backward of the decorrelation loss at the ROADMAP's
/// reference scale: z is (n x d), w the differentiable weight column.
double LdMicro(const Matrix& z, const Matrix& w_val, uint64_t seed) {
  Tape tape;
  Var w = tape.Leaf(w_val);
  Rng rng(seed);
  Var loss = HsicRffDecorrelationLoss(z, w, /*pair_budget=*/24, rng);
  tape.Backward(loss);
  return loss.value().scalar();
}

int Main() {
  Scale scale = GetScale();
  PrintBanner("bench_thread_scaling: worker-lane and ISA sweeps of the "
              "hot kernels",
              "engineering microbenchmark (not a paper artifact)", scale);
  BenchJsonWriter json("thread_scaling", scale);

  const int reps = scale.name == "smoke" ? 3 : 8;
  Rng rng(11);
  const int64_t big = scale.name == "smoke" ? 128 : 384;
  Matrix a = rng.Randn(big, big);
  Matrix b = rng.Randn(big, big);
  Matrix askinny = rng.Randn(1000, 25);
  Matrix bskinny = rng.Randn(25, 64);
  Matrix z = rng.Randn(1000, 32);
  Matrix w_val = rng.Rand(1000, 1, 0.5, 2.0);
  const std::string big_tag =
      std::to_string(big) + "x" + std::to_string(big);

  const auto record_workloads = [&](const std::string& suffix) {
    json.Record("matmul_" + big_tag + suffix, TimeBest([&] {
      return Matmul(a, b).data()[0];
    }, reps));
    json.Record("matmul_1000x25x64" + suffix, TimeBest([&] {
      return Matmul(askinny, bskinny).data()[0];
    }, reps));
    json.Record("ld_micro_d32_n1000" + suffix, TimeBest([&] {
      return LdMicro(z, w_val, 99);
    }, reps));
  };

  // --- Sweep 1: worker lanes at the auto-resolved ISA. -------------
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> lane_counts = {1};
  for (int lanes = 2; lanes <= static_cast<int>(hw == 0 ? 1 : hw);
       lanes *= 2) {
    lane_counts.push_back(lanes);
  }
  for (int lanes : lane_counts) {
    ThreadPool::ResetGlobalForTest(lanes - 1);
    record_workloads("/threads" + std::to_string(lanes));
    std::cout << lanes << " lane(s) done\n";
  }
  ThreadPool::ResetGlobalForTest(0);

  // --- Sweep 2: ISA levels at one lane. ----------------------------
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (isa > MaxSupportedIsa()) continue;
    // A SBRL_ISA env override outranks the forced choice; skip levels
    // the resolver refuses so every entry is labeled with what ran.
    if (SetActiveIsa(static_cast<IsaChoice>(static_cast<int>(isa))) != isa) {
      continue;
    }
    record_workloads(std::string("/isa_") + IsaName(isa));
    std::cout << "isa " << IsaName(isa) << " done\n";
  }
  SetActiveIsa(IsaChoice::kAuto);

  std::cout << "wrote " << json.WriteOrDie() << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sbrl

int main() { return sbrl::bench::Main(); }
