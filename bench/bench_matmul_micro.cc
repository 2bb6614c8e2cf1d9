// Microbenchmark of the dense-linalg hot kernels: the tiled parallel
// Matmul against the seed repo's naive triple-loop kernel
// (MatmulReference), plus the transpose-product kernels used by every
// backward pass, the per-level ELU backward kernel, the per-level
// RFF scaled cosine kernel, the register-tiled TransA on training
// shapes and one fused HSIC-RFF tier. The tiled
// kernel must beat the seed kernel at 256^3 even single-threaded
// (SBRL_NUM_THREADS=1).
//
// Timings are written to BENCH_matmul_micro.json; the tiled kernel's
// result is CHECKed AllClose against the reference on every shape, so
// this bench doubles as an integration check of the blocked kernels.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/tape.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/independence_regularizer.h"
#include "harness.h"
#include "tensor/kernels.h"
#include "tensor/linalg.h"
#include "tensor/pool.h"
#include "tensor/random.h"

namespace sbrl {
namespace bench {
namespace {

struct Shape {
  int64_t n, k, m;
};

// Prevents the timed loop from being optimized away.
volatile double g_sink = 0.0;

double TimeOp(const std::function<Matrix()>& op, int reps, Matrix* witness) {
  *witness = op();  // warm-up, kept for the correctness check
  Timer t;
  for (int r = 0; r < reps; ++r) {
    Matrix out = op();
    g_sink = g_sink + out.data()[0];
  }
  return t.ElapsedSeconds() / reps;
}

int Main() {
  Scale scale = GetScale();
  PrintBanner("bench_matmul_micro: tiled kernels vs seed reference",
              "engineering microbenchmark (not a paper artifact)", scale);
  BenchJsonWriter json("matmul_micro", scale);

  const std::vector<Shape> shapes = scale.name == "smoke"
                                        ? std::vector<Shape>{{64, 64, 64}}
                                        : std::vector<Shape>{{256, 256, 256},
                                                             {1000, 25, 64},
                                                             {512, 512, 32}};
  const int reps = scale.name == "smoke" ? 3 : 10;
  Rng rng(7);
  for (const Shape& s : shapes) {
    Matrix a = rng.Randn(s.n, s.k);
    Matrix b = rng.Randn(s.k, s.m);
    const std::string tag = std::to_string(s.n) + "x" + std::to_string(s.k) +
                            "x" + std::to_string(s.m);

    Matrix ref_out, tiled_out;
    const double ref_s =
        TimeOp([&] { return MatmulReference(a, b); }, reps, &ref_out);
    const double tiled_s = TimeOp([&] { return Matmul(a, b); }, reps,
                                  &tiled_out);
    SBRL_CHECK(AllClose(ref_out, tiled_out, 1e-9))
        << "tiled Matmul diverges from reference at " << tag;
    json.Record("matmul_reference/" + tag, ref_s);
    json.Record("matmul_tiled/" + tag, tiled_s);

    Matrix bt = Transpose(b);
    Matrix witness;
    json.Record("matmul_trans_b/" + tag,
                TimeOp([&] { return MatmulTransB(a, bt); }, reps, &witness));
    SBRL_CHECK(AllClose(witness, tiled_out, 1e-9))
        << "MatmulTransB diverges at " << tag;
    Matrix at = Transpose(a);
    json.Record("matmul_trans_a/" + tag,
                TimeOp([&] { return MatmulTransA(at, b); }, reps, &witness));
    SBRL_CHECK(AllClose(witness, tiled_out, 1e-9))
        << "MatmulTransA diverges at " << tag;

    std::cout << tag << ": reference " << ref_s * 1e3 << " ms, tiled "
              << tiled_s * 1e3 << " ms ("
              << (tiled_s > 0 ? ref_s / tiled_s : 0.0) << "x, "
              << ThreadPool::GlobalParallelism() << " thread(s))\n";

    // Per-ISA sweep of the same product: every level the host supports,
    // forced via SetActiveIsa, so BENCH_matmul_micro.json tracks the
    // dispatch win (and each level's result is re-checked against the
    // reference). The trans_b lane tracks the blocked-panel wide
    // kernel. The auto-resolved level is restored afterwards.
    for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
      if (isa > MaxSupportedIsa()) continue;
      // A SBRL_ISA env override outranks the forced choice; skip levels
      // the resolver refuses so every entry is labeled with what ran.
      if (SetActiveIsa(isa) != isa) continue;
      Matrix isa_out;
      const double isa_s = TimeOp([&] { return Matmul(a, b); }, reps,
                                  &isa_out);
      SBRL_CHECK(AllClose(ref_out, isa_out, 1e-9))
          << IsaName(isa) << " Matmul diverges from reference at " << tag;
      json.Record(std::string("matmul_tiled_") + IsaName(isa) + "/" + tag,
                  isa_s);
      const double tb_s = TimeOp([&] { return MatmulTransB(a, bt); }, reps,
                                 &isa_out);
      SBRL_CHECK(AllClose(ref_out, isa_out, 1e-9))
          << IsaName(isa) << " MatmulTransB diverges at " << tag;
      json.Record(std::string("matmul_trans_b_") + IsaName(isa) + "/" + tag,
                  tb_s);
      std::cout << "  " << IsaName(isa) << ": " << isa_s * 1e3
                << " ms (trans_b " << tb_s * 1e3 << " ms)\n";
    }
    SetActiveIsa(std::nullopt);
  }

  // ELU backward kernel (LinalgKernels::elu_grad) of every level the
  // host supports, one serial call per rep at a stream shard layer
  // (4096 x 64) and a sweep cell layer (300 x 32). Recorded as seconds
  // per element; each level must reproduce the baseline bit for bit.
  const int64_t grad_elems = scale.name == "smoke" ? 1 << 22 : 1 << 26;
  for (const auto& [rows, cols] :
       {std::pair<int64_t, int64_t>{4096, 64}, {300, 32}}) {
    const int64_t n = rows * cols;
    const Matrix g = rng.Randn(rows, cols);
    Matrix y = rng.Randn(rows, cols);
    LinalgKernelsForIsa(Isa::kBaseline).elu(y.data(), n);
    Matrix want(rows, cols), out(rows, cols);
    LinalgKernelsForIsa(Isa::kBaseline)
        .elu_grad(g.data(), y.data(), want.data(), n);
    const std::string tag = std::to_string(rows) + "x" + std::to_string(cols);
    const int64_t grad_reps = std::max<int64_t>(1, grad_elems / n);
    for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
      if (isa > MaxSupportedIsa()) continue;
      const LinalgKernels& kernels = LinalgKernelsForIsa(isa);
      kernels.elu_grad(g.data(), y.data(), out.data(), n);  // warm-up
      Timer t;
      for (int64_t r = 0; r < grad_reps; ++r) {
        kernels.elu_grad(g.data(), y.data(), out.data(), n);
        g_sink = g_sink + out.data()[r % n];
      }
      const double per_elem = t.ElapsedSeconds() / (grad_reps * n);
      SBRL_CHECK(std::memcmp(out.data(), want.data(), sizeof(double) * n) ==
                 0)
          << IsaName(isa) << " elu_grad is not bitwise baseline at " << tag;
      json.Record(std::string("elu_grad_") + IsaName(isa) + "/" + tag,
                  per_elem);
      std::cout << "elu_grad " << tag << " " << IsaName(isa) << ": "
                << per_elem * 1e9 << " ns/element\n";
    }
  }
  // Scaled cosine kernel (LinalgKernels::scaled_cos) of every level the
  // host supports, one serial call per run over a buffer of fresh
  // angles: 4096-element runs (a long flat sweep) and 5-element runs
  // (one row of k = 5 features, where the 8-lane masked tail
  // pays most). Recorded as seconds per element; the outputs of the two
  // run lengths must agree bit for bit (the kernel is lane-pure).
  const int64_t cos_elems = 4096 * 60;  // a multiple of both run lengths
  const int cos_reps = scale.name == "smoke" ? 4 : 40;
  const Matrix angles = rng.Rand(1, cos_elems, -20.0, 20.0);
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (isa > MaxSupportedIsa()) continue;
    const LinalgKernels& kernels = LinalgKernelsForIsa(isa);
    std::vector<Matrix> outs;
    for (const int64_t run : {int64_t{4096}, int64_t{5}}) {
      Matrix work = angles;
      double seconds = 0.0;
      for (int r = 0; r <= cos_reps; ++r) {  // rep 0 is the warm-up
        std::memcpy(work.data(), angles.data(), sizeof(double) * cos_elems);
        Timer t;
        for (int64_t i = 0; i < cos_elems; i += run) {
          kernels.scaled_cos(work.data() + i, run, std::sqrt(2.0));
        }
        if (r > 0) seconds += t.ElapsedSeconds();
        g_sink = g_sink + work.data()[r];
      }
      const double per_elem = seconds / (cos_reps * cos_elems);
      json.Record(std::string("scaled_cos_") + IsaName(isa) + "/" +
                      std::to_string(run),
                  per_elem);
      std::cout << "scaled_cos run " << run << " " << IsaName(isa) << ": "
                << per_elem * 1e9 << " ns/element\n";
      outs.push_back(std::move(work));
    }
    SBRL_CHECK(std::memcmp(outs[0].data(), outs[1].data(),
                           sizeof(double) * cos_elems) == 0)
        << IsaName(isa) << " scaled_cos depends on the run length";
  }
  // The fit's hot batch reductions at every level the host supports:
  // the register-tiled TransA on training shapes (tags read reduction x
  // output rows x output columns: dW of a 32-wide hidden layer, of a
  // 64 -> 1 output unit, and the 1-row means shape of a 26-column HSIC
  // tier), and one fused HSIC-RFF tier, forward + backward (n = 1000
  // rows, d = 32 columns, pair budget 24, k = 5, the projections drawn
  // once up front as within a weight step). Seconds per call; every
  // level's TransA must reproduce the baseline bit for bit.
  const int layer_reps = scale.name == "smoke" ? 5 : 200;
  for (const Shape& s : {Shape{1000, 32, 32}, Shape{1000, 64, 1},
                         Shape{1000, 1, 130}}) {
    const Matrix a = rng.Randn(s.n, s.k);  // (reduction x output rows)
    const Matrix b = rng.Randn(s.n, s.m);
    const std::string tag = std::to_string(s.n) + "x" + std::to_string(s.k) +
                            "x" + std::to_string(s.m);
    Matrix want;
    for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
      if (isa > MaxSupportedIsa()) continue;
      ScopedThreadIsa pin(isa);
      Matrix got;
      const double ta_s =
          TimeOp([&] { return MatmulTransA(a, b); }, layer_reps, &got);
      if (isa == Isa::kBaseline) want = got;
      SBRL_CHECK(std::memcmp(got.data(), want.data(),
                             sizeof(double) * want.size()) == 0)
          << IsaName(isa) << " MatmulTransA is not bitwise baseline at "
          << tag;
      json.Record(std::string("matmul_trans_a_") + IsaName(isa) + "/" + tag,
                  ta_s);
      std::cout << "matmul_trans_a " << tag << " " << IsaName(isa) << ": "
                << ta_s * 1e6 << " us\n";
    }
  }
  const Matrix z = rng.Randn(1000, 32);
  const Matrix w_val = rng.Rand(1000, 1, 0.5, 2.0);
  MatrixPool pool;
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (isa > MaxSupportedIsa()) continue;
    ScopedThreadIsa pin(isa);
    RffSlotDraws draws{17, {}};
    Matrix witness;
    const double tier_s = TimeOp(
        [&] {
          Tape tape(&pool);
          Var w = tape.Leaf(w_val);
          Rng pair_rng(5);
          tape.Backward(HsicRffDecorrelationLoss(z, w, 24, pair_rng, &draws));
          return w.grad();
        },
        layer_reps, &witness);
    json.Record(std::string("hsic_tier_") + IsaName(isa) + "/1000x32",
                tier_s);
    std::cout << "hsic_tier 1000x32 " << IsaName(isa) << ": "
              << tier_s * 1e6 << " us\n";
  }
  std::cout << "wrote " << json.WriteOrDie() << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sbrl

int main() { return sbrl::bench::Main(); }
