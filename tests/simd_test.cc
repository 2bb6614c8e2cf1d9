// Coverage for the library's two libmvec-backed kernels and the RFF
// machinery around the cosine (stats/rff.h):
//  - the scaled cosine kernel (LinalgKernels::scaled_cos) is lane-pure
//    at every compiled level (an element's output equals its input run
//    alone, whatever the run length or offset), stays within
//    kVecCosMaxUlp of std::cos over an edge grid, equals std::cos at
//    baseline, and its serial and parallel sweeps give the same bits;
//  - the per-step RffSlotDraws memo must be value-transparent: memoized
//    slots equal the pure slot draws, and the HAP weight loss and its
//    gradient are bitwise identical whether the tiers share one draw
//    set or each draws afresh, at every level;
//  - the f64 ELU kernel (LinalgKernels::elu) is lane-pure at every
//    compiled level, stays within kVecCosMaxUlp of std::expm1 over an
//    edge grid, passes positives through, equals std::expm1 at
//    baseline, and keeps fused == reference and thread-count
//    invariance bitwise;
//  - the f64 ELU backward kernel (LinalgKernels::elu_grad) equals the
//    scalar formula g * (y > 0 ? 1 : y + 1) bit for bit at every level,
//    run length, offset, edge value and thread count.
// The threads2 ctest variant reruns this suite under SBRL_NUM_THREADS=2,
// exercising the parallel fan-out of the sweeps. The asan/ubsan build
// runs it too, covering the kernels' masked and padded tail lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "core/hap.h"
#include "core/independence_regularizer.h"
#include "reference_net.h"
#include "stats/rff.h"
#include "tensor/kernels.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

/// Distance in units in the last place between two doubles: the gap
/// between their positions in the monotonic ordering of finite
/// doubles (0 iff bitwise equal up to -0.0 == +0.0).
int64_t UlpDiff(double a, double b) {
  if (a == b) return 0;
  int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map the sign-magnitude double ordering onto a monotonic integer
  // line so subtraction counts representable values between a and b.
  if (ia < 0) ia = std::numeric_limits<int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

/// Edge angles plus dense random coverage of the ranges RFF angles
/// live in (|w x + phi| is rarely beyond a few hundred, but the sweep
/// must stay accurate everywhere).
std::vector<double> TestAngles() {
  std::vector<double> xs = {0.0, -0.0};
  for (int m = 1; m <= 100; ++m) {
    xs.push_back(m * M_PI);
    xs.push_back(-m * M_PI);
    xs.push_back(m * M_PI_2);
    xs.push_back(-m * M_PI_2);
  }
  // Denormals and the smallest normals.
  xs.push_back(5e-324);
  xs.push_back(-5e-324);
  xs.push_back(1e-310);
  xs.push_back(2.2250738585072014e-308);
  // Large |x|: the vector kernel's range reduction must hold up.
  for (double big : {1e6, 1e10, 1e15, 1e18, 1e300}) {
    xs.push_back(big);
    xs.push_back(-big);
  }
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) xs.push_back(rng.Uniform(-20.0, 20.0));
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.Uniform(-1e4, 1e4));
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.Uniform(-1e9, 1e9));
  return xs;
}

/// Every level this binary + host can run.
std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kBaseline};
  if (Isa::kAvx2 <= MaxSupportedIsa()) isas.push_back(Isa::kAvx2);
  if (Isa::kAvx512 <= MaxSupportedIsa()) isas.push_back(Isa::kAvx512);
  return isas;
}

double Bits(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// scale * cos(x) through `isa`'s kernel, one element at a time.
double CosAlone(Isa isa, double x, double scale) {
  LinalgKernelsForIsa(isa).scaled_cos(&x, 1, scale);
  return x;
}

// ---------------------------------------------------------------------------
// The scaled cosine kernel of each ISA level and the sweeps around it.
// ---------------------------------------------------------------------------

TEST(CosKernelTest, EachOutputEqualsItsInputRunAlone) {
  // Lane purity: lengths 1-67 at every offset 0-7 cover full vectors,
  // every tail length and unaligned starts; the neighbours outside the
  // run must stay untouched.
  Rng rng(831);
  const double scale = std::sqrt(2.0);
  std::vector<double> pool(75);
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    for (int64_t len = 1; len <= 67; ++len) {
      for (int64_t off = 0; off < 8; ++off) {
        for (double& v : pool) v = rng.Uniform(-20.0, 20.0);
        pool[static_cast<size_t>(off + len / 2)] =
            std::numeric_limits<double>::quiet_NaN();
        std::vector<double> run = pool;
        LinalgKernelsForIsa(isa).scaled_cos(run.data() + off, len, scale);
        for (int64_t i = 0; i < static_cast<int64_t>(pool.size()); ++i) {
          const double x = pool[static_cast<size_t>(i)];
          const double want =
              i < off || i >= off + len ? x : CosAlone(isa, x, scale);
          ASSERT_TRUE(SameBits(run[static_cast<size_t>(i)], want))
              << "len " << len << " offset " << off << " element " << i
              << " x = " << x;
        }
      }
    }
  }
}

TEST(CosKernelTest, WithinUlpBoundOfStdCosOverEdgeGrid) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = TestAngles();
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    std::vector<double> ys = xs;
    LinalgKernelsForIsa(isa).scaled_cos(ys.data(),
                                        static_cast<int64_t>(ys.size()), 1.0);
    int64_t max_ulp = 0;
    double worst = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      const int64_t u = UlpDiff(std::cos(xs[i]), ys[i]);
      if (u > max_ulp) {
        max_ulp = u;
        worst = xs[i];
      }
    }
    EXPECT_LE(max_ulp, kVecCosMaxUlp) << "worst angle " << worst;
    EXPECT_TRUE(std::isnan(CosAlone(isa, inf, 1.0)));
    EXPECT_TRUE(std::isnan(CosAlone(isa, -inf, 1.0)));
    EXPECT_TRUE(std::isnan(CosAlone(isa, nan, 1.0)));
    EXPECT_EQ(CosAlone(isa, 0.0, 1.0), 1.0);
    EXPECT_EQ(CosAlone(isa, -0.0, 1.0), 1.0);
    EXPECT_EQ(CosAlone(isa, Bits(1), 1.0), 1.0);
  }
}

TEST(CosKernelTest, BaselineIsScalarStdCosBitwise) {
  std::vector<double> xs = TestAngles();
  xs.push_back(std::numeric_limits<double>::infinity());
  xs.push_back(std::numeric_limits<double>::quiet_NaN());
  const double scale = std::sqrt(2.0);
  std::vector<double> ys = xs;
  LinalgKernelsForIsa(Isa::kBaseline)
      .scaled_cos(ys.data(), static_cast<int64_t>(ys.size()), scale);
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(SameBits(ys[i], scale * std::cos(xs[i])))
        << "element " << i << " angle " << xs[i];
  }
}

TEST(ScaledCosTest, BaselineSweepReproducesScalarStdCosBitwise) {
  // The sweep pinned to baseline is exactly the scalar std::cos loop,
  // chunked across the pool or not.
  ScopedThreadIsa pin(Isa::kBaseline);
  const std::vector<double> xs = TestAngles();
  std::vector<double> swept = xs;
  const double scale = std::sqrt(2.0);
  ScaledCosInPlace(swept.data(), static_cast<int64_t>(swept.size()), scale);
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(swept[i], scale * std::cos(xs[i]))
        << "element " << i << " angle " << xs[i];
  }
}

TEST(ScaledCosTest, SweepSecondsAccrueToTheCallingThreadOnly) {
  // The counter behind TrainDiagnostics::rff_cos_seconds is per thread:
  // a sweep on another thread must not advance this thread's total (the
  // cross-run attribution bug of the process-global counter), while a
  // local sweep must.
  std::vector<double> xs(20000);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 0.001 * static_cast<double>(i);
  }
  const double before = CosSweepSecondsThisThread();
  std::thread other([xs]() mutable {
    ScaledCosInPlace(xs.data(), static_cast<int64_t>(xs.size()), 1.0);
  });
  other.join();
  EXPECT_EQ(CosSweepSecondsThisThread(), before);
  ScaledCosInPlace(xs.data(), static_cast<int64_t>(xs.size()), 1.0);
  EXPECT_GT(CosSweepSecondsThisThread(), before);
}

TEST(ScaledCosTest, LargeSweepBitwiseEqualAcrossThreadCounts) {
  // 65,536 angles through the flat sweep at 1, 2 and 4 threads: every
  // chunking gives the bits of the kernel applied element by element.
  const Matrix angles = Rng(832).Rand(1, 65536, -50.0, 50.0);
  const double scale = std::sqrt(2.0);
  const int restore_workers = ThreadPool::GlobalParallelism() - 1;
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    ScopedThreadIsa pin(isa);
    for (int threads : {1, 2, 4}) {
      ThreadPool::ResetGlobalForTest(threads - 1);
      Matrix swept = angles;
      ScaledCosInPlace(swept.data(), swept.size(), scale);
      for (int64_t i = 0; i < swept.size(); ++i) {
        ASSERT_TRUE(SameBits(swept[i], CosAlone(isa, angles[i], scale)))
            << threads << " threads, element " << i;
      }
    }
  }
  ThreadPool::ResetGlobalForTest(restore_workers);
}

// ---------------------------------------------------------------------------
// Slot draws and the per-step draw set.
// ---------------------------------------------------------------------------

TEST(RffSlotTest, SlotDrawsAreDeterministicAndIndependent) {
  const RffProjection a = SampleRffSlot(123, 1, 5, 7);
  const RffProjection b = SampleRffSlot(123, 1, 5, 7);
  ASSERT_EQ(a.w.size(), b.w.size());
  for (int64_t i = 0; i < a.w.size(); ++i) EXPECT_EQ(a.w[i], b.w[i]);
  for (int64_t i = 0; i < a.phi.size(); ++i) EXPECT_EQ(a.phi[i], b.phi[i]);
  // Distinct slots / epochs / shapes give distinct seeds.
  EXPECT_NE(RffSlotSeed(123, 1, 5, 7), RffSlotSeed(123, 1, 5, 8));
  EXPECT_NE(RffSlotSeed(123, 1, 5, 7), RffSlotSeed(124, 1, 5, 7));
  EXPECT_NE(RffSlotSeed(123, 1, 5, 7), RffSlotSeed(123, 1, 6, 7));
  EXPECT_NE(RffSlotSeed(123, 1, 5, 7), RffSlotSeed(123, 2, 5, 7));
}

/// Loss and weight gradient of an SBRL-HAP weight loss whose every
/// decorrelation tier draws from a fresh RffSlotDraws of the step's
/// epoch seed — BuildWeightLoss's term order, with no balancing term.
std::pair<double, Matrix> FreshDrawsPerTier(const WeightLossInputs& inputs,
                                            const SbrlConfig& config,
                                            const Matrix& w_val,
                                            uint64_t seed) {
  Tape tape;
  Var w = tape.Leaf(w_val);
  Rng rng(seed);
  const uint64_t epoch_seed = rng.engine()();
  Var loss = ops::MeanAll(ops::Square(ops::AddConst(w, -1.0)));
  const auto add_tier = [&](const Matrix& z, double gamma) {
    RffSlotDraws fresh{epoch_seed, {}};
    loss = ops::Add(
        loss, ops::Scale(HsicRffDecorrelationLoss(z, w,
                                                  config.hsic_pair_budget,
                                                  rng, &fresh),
                         gamma));
  };
  add_tier(inputs.z_p, config.gamma1);
  add_tier(inputs.z_r, config.gamma2);
  for (const Matrix& z : inputs.z_o) add_tier(z, config.gamma3);
  tape.Backward(loss);
  return {loss.value().scalar(), w.grad()};
}

TEST(RffSlotDrawsTest, SharedDrawSetIsValueTransparent) {
  // Memoized slots, asked for out of order and repeatedly, are the
  // pure slot draws of their own column.
  RffSlotDraws draws{42, {}};
  for (int64_t col : {5, 0, 3, 5, 1, 0}) {
    const RffProjection want = SampleRffSlot(42, 1, 5, col);
    const RffProjection& got = draws.Slot(col, 5);
    ASSERT_EQ(got.w.size(), want.w.size());
    for (int64_t i = 0; i < want.w.size(); ++i) {
      EXPECT_TRUE(SameBits(got.w[i], want.w[i])) << "col " << col;
      EXPECT_TRUE(SameBits(got.phi[i], want.phi[i])) << "col " << col;
    }
  }
  // BuildWeightLoss shares one draw set across the HAP tiers; each tier
  // drawing afresh from the same epoch must give the same bits. Under a
  // budget of two pairs the tiers start from different columns, so a
  // memo that lost the column would hand a later tier the wrong draws.
  Rng data_rng(1001);
  const int64_t n = 60;
  WeightLossInputs inputs;
  inputs.z_p = data_rng.Randn(n, 6);
  inputs.z_r = data_rng.Randn(n, 8);
  inputs.z_o = {data_rng.Randn(n, 5), data_rng.Randn(n, 7)};
  for (int64_t i = 0; i < n; ++i) inputs.t.push_back(i % 2);
  const Matrix w_val = data_rng.Rand(n, 1, 0.5, 2.0);
  SbrlConfig config;
  config.gamma1 = 1.0;
  config.gamma2 = 0.5;
  config.gamma3 = 0.25;
  config.hsic_pair_budget = 2;
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    ScopedThreadIsa pin(isa);
    Tape tape;
    Var w = tape.Leaf(w_val);
    Rng rng(5);
    Var shared = BuildWeightLoss(w, inputs, config, FrameworkKind::kSbrlHap,
                                 /*alpha_br=*/0.0, rng);
    tape.Backward(shared);
    const auto [fresh_loss, fresh_grad] =
        FreshDrawsPerTier(inputs, config, w_val, 5);
    EXPECT_TRUE(SameBits(shared.value().scalar(), fresh_loss));
    ASSERT_TRUE(w.grad().same_shape(fresh_grad));
    for (int64_t i = 0; i < fresh_grad.size(); ++i) {
      EXPECT_TRUE(SameBits(w.grad()[i], fresh_grad[i]))
          << "grad element " << i;
    }
  }
}

TEST(RffStackTest, StackMatchesPerElementFormulaBitwise) {
  // The flat-angle sweep must not change values: each stacked feature
  // equals the level's cosine of its angle v * w_f + phi_f alone, and
  // at baseline that is sqrt(2) * std::cos exactly as the per-element
  // loop computed it.
  Rng data_rng(31);
  Matrix x = data_rng.Randn(50, 4);
  std::vector<int64_t> cols = {0, 2, 3};
  const int64_t k = 5;
  const double root2 = std::sqrt(2.0);
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    ScopedThreadIsa pin(isa);
    RffSlotDraws draws{8, {}};
    Matrix stacked(50, static_cast<int64_t>(cols.size()) * k);
    StackRffRows(x, MakeRffStack(cols, &draws), 0, x.rows(), &stacked);
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      RffProjection proj = SampleRffSlot(8, 1, k, cols[ci]);
      for (int64_t i = 0; i < x.rows(); ++i) {
        for (int64_t f = 0; f < k; ++f) {
          const double angle = x(i, cols[ci]) * proj.w(0, f) + proj.phi(0, f);
          const double want = isa == Isa::kBaseline
                                  ? root2 * std::cos(angle)
                                  : CosAlone(isa, angle, root2);
          EXPECT_EQ(stacked(i, static_cast<int64_t>(ci) * k + f), want)
              << "col " << cols[ci] << " row " << i << " feature " << f;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The f64 ELU kernel of each ISA level.
// ---------------------------------------------------------------------------

/// The baseline's scalar ELU backward formula, the contract of every
/// level.
double EluGradFormula(double g, double y) {
  return g * (y > 0.0 ? 1.0 : y + 1.0);
}

/// Gradient of sum(elu(x) .* u) with respect to x, through ops::Elu.
Matrix EluBackward(const Matrix& x, const Matrix& u) {
  Tape t;
  Var xv = t.Leaf(x);
  t.Backward(ops::SumAll(ops::Mul(ops::Elu(xv), t.Constant(u))));
  return xv.grad();
}

/// ELU through `isa`'s kernel, one element at a time.
double EluAlone(Isa isa, double x) {
  LinalgKernelsForIsa(isa).elu(&x, 1);
  return x;
}

/// The non-positive edge grid of the ELU's expm1 branch.
std::vector<double> EluEdgeInputs() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {
      -0.0,   0.0,    Bits(1),  -Bits(1), -Bits(0x000fffffffffffffULL),
      -1e-310, -2.2250738585072014e-308, -1e-300, -1e-17, -1e-8,
      -0.5,   -1.0,   -37.5,   -709.9,  -745.2, -1000.0, -inf};
  Rng rng(811);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Uniform(-40.0, 0.0));
  for (int i = 0; i < 2000; ++i) xs.push_back(-std::exp(rng.Uniform(-60, 1)));
  return xs;
}

TEST(EluKernelTest, EachOutputEqualsItsInputRunAlone) {
  // Lane purity: lengths 1-67 at every offset 0-7 cover full vectors,
  // every tail length and unaligned starts; the neighbours outside the
  // run must stay untouched.
  Rng rng(812);
  std::vector<double> pool(75);
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    for (int64_t len = 1; len <= 67; ++len) {
      for (int64_t off = 0; off < 8; ++off) {
        for (double& v : pool) v = rng.Normal(-1.0, 3.0);
        pool[static_cast<size_t>(off + len / 2)] =
            std::numeric_limits<double>::quiet_NaN();
        std::vector<double> run = pool;
        LinalgKernelsForIsa(isa).elu(run.data() + off, len);
        for (int64_t i = 0; i < static_cast<int64_t>(pool.size()); ++i) {
          const double x = pool[static_cast<size_t>(i)];
          const double want = i < off || i >= off + len ? x : EluAlone(isa, x);
          ASSERT_EQ(std::memcmp(&run[static_cast<size_t>(i)], &want,
                                sizeof(double)),
                    0)
              << "len " << len << " offset " << off << " element " << i
              << " x = " << x;
        }
      }
    }
  }
}

TEST(EluKernelTest, WithinUlpBoundOfStdExpm1OverEdgeGrid) {
  const std::vector<double> xs = EluEdgeInputs();
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    std::vector<double> ys = xs;
    LinalgKernelsForIsa(isa).elu(ys.data(), static_cast<int64_t>(ys.size()));
    for (size_t i = 0; i < xs.size(); ++i) {
      const double want = xs[i] > 0.0 ? xs[i] : std::expm1(xs[i]);
      EXPECT_LE(UlpDiff(want, ys[i]), kVecCosMaxUlp) << "x = " << xs[i];
      EXPECT_EQ(std::signbit(want), std::signbit(ys[i])) << "x = " << xs[i];
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(std::isnan(EluAlone(isa, nan)));
    EXPECT_TRUE(std::isnan(EluAlone(isa, -nan)));
    EXPECT_EQ(EluAlone(isa, -inf), -1.0);
    EXPECT_TRUE(std::signbit(EluAlone(isa, -0.0)));
    EXPECT_EQ(EluAlone(isa, -0.0), 0.0);
  }
}

TEST(EluKernelTest, PositiveInputsPassThroughBitExact) {
  std::vector<double> xs = {Bits(1), 1e-310, 1e-300, 1e-17, 0.5,   1.0,
                            37.5,    709.9,  745.2,  1e300, 1.7976931348623157e308,
                            std::numeric_limits<double>::infinity()};
  Rng rng(813);
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Uniform(0.0, 50.0));
  for (Isa isa : SupportedIsas()) {
    std::vector<double> ys = xs;
    LinalgKernelsForIsa(isa).elu(ys.data(), static_cast<int64_t>(ys.size()));
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(ys[i], xs[i]) << IsaName(isa) << " x = " << xs[i];
    }
  }
}

TEST(EluKernelTest, BaselineIsScalarStdExpm1Bitwise) {
  std::vector<double> xs = EluEdgeInputs();
  xs.push_back(std::numeric_limits<double>::quiet_NaN());
  std::vector<double> ys = xs;
  LinalgKernelsForIsa(Isa::kBaseline).elu(ys.data(),
                                          static_cast<int64_t>(ys.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    const double want = xs[i] > 0.0 ? xs[i] : std::expm1(xs[i]);
    EXPECT_EQ(std::memcmp(&ys[i], &want, sizeof(double)), 0)
        << "x = " << xs[i];
  }
}

TEST(EluKernelTest, FusedAffineActEqualsReferenceCompositionAtOddWidth) {
  // m = 13 leaves a tail in every row at every vector width, and the
  // fused op runs the kernel per row while the reference runs it over
  // elementwise chunks of the whole matrix.
  const Matrix x0 = Rng(814).Randn(37, 6);
  const Matrix w0 = Rng(815).Randn(6, 13);
  const Matrix b0 = Rng(816).Randn(1, 13);
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    ScopedThreadIsa pin(isa);
    Tape t1;
    Var x1 = t1.Leaf(x0), w1 = t1.Leaf(w0), b1 = t1.Leaf(b0);
    Var fused = ops::AffineAct(x1, w1, b1, ops::ActKind::kElu);
    t1.Backward(ops::SumAll(ops::Square(fused)));
    Tape t2;
    Var x2 = t2.Leaf(x0), w2 = t2.Leaf(w0), b2 = t2.Leaf(b0);
    Var reference = reference::ApplyActivation(ops::Affine(x2, w2, b2),
                                               ops::ActKind::kElu);
    t2.Backward(ops::SumAll(ops::Square(reference)));
    const Matrix served =
        ops::AffineActValue(x0, w0, b0, ops::ActKind::kElu, nullptr);
    for (int64_t i = 0; i < fused.value().size(); ++i) {
      ASSERT_EQ(fused.value()[i], reference.value()[i]) << "element " << i;
      ASSERT_EQ(fused.value()[i], served[i]) << "element " << i;
    }
    for (int64_t i = 0; i < w0.size(); ++i) {
      ASSERT_EQ(w1.grad()[i], w2.grad()[i]) << "dw element " << i;
    }
    for (int64_t i = 0; i < x0.size(); ++i) {
      ASSERT_EQ(x1.grad()[i], x2.grad()[i]) << "dx element " << i;
    }
    for (int64_t i = 0; i < b0.size(); ++i) {
      ASSERT_EQ(b1.grad()[i], b2.grad()[i]) << "db element " << i;
    }
  }
}

TEST(EluKernelTest, LargeSweepBitwiseEqualAcrossThreadCounts) {
  // 65,536 x 64 through both callers: the elementwise op (chunked by
  // ElementwiseFor) and the fused bias + ELU rows (RowwiseFor); and the
  // backward kernel over ElementwiseFor chunks, which must also give
  // the scalar formula's bits.
  const Matrix pre = Rng(817).Randn(65536, 64);
  const Matrix u = Rng(824).Randn(65536, 64);
  const Matrix x0 = Rng(818).Randn(65536, 3);
  const Matrix w0 = Rng(819).Randn(3, 64);
  const Matrix b0 = Rng(820).Randn(1, 64);
  const int restore_workers = ThreadPool::GlobalParallelism() - 1;
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    ScopedThreadIsa pin(isa);
    std::vector<Matrix> elu, fused, grad;
    for (int threads : {1, 2, 4}) {
      ThreadPool::ResetGlobalForTest(threads - 1);
      Tape t;
      elu.push_back(ops::Elu(t.Constant(pre)).value());
      fused.push_back(
          ops::AffineActValue(x0, w0, b0, ops::ActKind::kElu, nullptr));
      grad.push_back(EluBackward(pre, u));
    }
    for (int64_t i = 0; i < pre.size(); ++i) {
      ASSERT_TRUE(SameBits(grad[0][i], EluGradFormula(u[i], elu[0][i])))
          << "element " << i;
    }
    for (size_t k = 1; k < elu.size(); ++k) {
      EXPECT_EQ(std::memcmp(grad[0].data(), grad[k].data(),
                            sizeof(double) * grad[0].size()),
                0);
      EXPECT_EQ(std::memcmp(elu[0].data(), elu[k].data(),
                            sizeof(double) * elu[0].size()),
                0);
      EXPECT_EQ(std::memcmp(fused[0].data(), fused[k].data(),
                            sizeof(double) * fused[0].size()),
                0);
    }
  }
  ThreadPool::ResetGlobalForTest(restore_workers);
}

// ---------------------------------------------------------------------------
// The f64 ELU backward kernel of each ISA level.
// ---------------------------------------------------------------------------

TEST(EluGradKernelTest, EqualsScalarFormulaAtEveryLengthAndOffset) {
  // Lengths 1-67 at offsets 0-7 cover full vectors, every tail length
  // and unaligned starts; y straddles 0 and -1 and holds a NaN, and the
  // outputs outside the run must stay untouched.
  Rng rng(821);
  const double sentinel = -123.25;
  std::vector<double> g(75), y(75);
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    for (int64_t len = 1; len <= 67; ++len) {
      for (int64_t off = 0; off < 8; ++off) {
        for (size_t i = 0; i < g.size(); ++i) {
          g[i] = rng.Normal(0.0, 2.0);
          y[i] = rng.Normal(-0.5, 1.0);
        }
        y[static_cast<size_t>(off + len / 2)] =
            std::numeric_limits<double>::quiet_NaN();
        std::vector<double> out(g.size(), sentinel);
        LinalgKernelsForIsa(isa).elu_grad(g.data() + off, y.data() + off,
                                          out.data() + off, len);
        for (int64_t i = 0; i < static_cast<int64_t>(out.size()); ++i) {
          const size_t k = static_cast<size_t>(i);
          const double want = i < off || i >= off + len
                                  ? sentinel
                                  : EluGradFormula(g[k], y[k]);
          ASSERT_TRUE(SameBits(out[k], want))
              << "len " << len << " offset " << off << " element " << i
              << " g = " << g[k] << " y = " << y[k] << ": " << out[k]
              << " vs " << want;
        }
      }
    }
  }
}

TEST(EluGradKernelTest, EqualsScalarFormulaOverEdgeGrid) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> ys = {
      0.0, -0.0, Bits(1), -Bits(1), -1.0, std::nextafter(-1.0, 0.0),
      0x1p-60, inf, -inf, nan};
  const std::vector<double> gs = {0.0, -0.0, 1.0, -1.0, inf, -inf, nan, 1e308};
  std::vector<double> g, y;
  for (double yv : ys) {
    for (double gv : gs) {
      g.push_back(gv);
      y.push_back(yv);
    }
  }
  const int64_t n = static_cast<int64_t>(g.size());
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    std::vector<double> out(g.size());
    LinalgKernelsForIsa(isa).elu_grad(g.data(), y.data(), out.data(), n);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(SameBits(out[i], EluGradFormula(g[i], y[i])))
          << "g = " << g[i] << " y = " << y[i] << ": " << out[i];
    }
  }
  // The ordered compare sends a NaN y to the y + 1 branch.
  for (Isa isa : SupportedIsas()) {
    double one = 1.0, out = 0.0;
    LinalgKernelsForIsa(isa).elu_grad(&one, &nan, &out, 1);
    EXPECT_TRUE(std::isnan(out)) << IsaName(isa);
  }
}

TEST(EluGradKernelTest, BitwiseEqualAcrossLevels) {
  Rng rng(822);
  const int64_t n = 100003;
  std::vector<double> g(static_cast<size_t>(n)), y(g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = rng.Normal(0.0, 3.0);
    y[i] = i % 3 == 0 ? std::expm1(rng.Uniform(-40.0, 0.0))
                      : rng.Normal(0.0, 1.0);
  }
  std::vector<double> want(g.size());
  LinalgKernelsForIsa(Isa::kBaseline)
      .elu_grad(g.data(), y.data(), want.data(), n);
  for (Isa isa : SupportedIsas()) {
    std::vector<double> out(g.size());
    LinalgKernelsForIsa(isa).elu_grad(g.data(), y.data(), out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), want.data(), sizeof(double) * g.size()),
              0)
        << IsaName(isa);
  }
}

}  // namespace
}  // namespace sbrl
