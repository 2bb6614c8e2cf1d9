// Coverage of the runtime ISA-dispatch layer (common/cpu.h +
// tensor/kernels.h + the RFF cosine sweep of stats/rff.h):
//
//  - cpuid feature detection is internally consistent and agrees with
//    the resolvable ISA levels,
//  - the SBRL_ISA grammar round-trips and the resolution rule
//    (env > config > auto, clamped to the host) holds, both through
//    the pure ResolveIsa and through SetActiveIsa process state,
//  - the kernels with a bitwise cross-ISA contract (Matmul,
//    MatmulTransA, the block-cross forward) are EXACTLY equal across
//    every supported level, and the dot-shaped kernels (MatmulTransB,
//    the dw backward) stay within a tight tolerance of baseline,
//  - MatmulTransB gives a row the same bits whichever row route
//    (panel, eight-row branch, lone row) a range split sends it down,
//  - every level's cosine sweep stays within the documented 4-ulp
//    bound of std::cos,
//  - within a level, results are bitwise invariant to the worker
//    count (the determinism contract, re-proven per ISA),
//  - every level's MT19937-64 refill gives std::mt19937_64's words and
//    the scalar Canonical53 / polar-coordinate conversions bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/thread_pool.h"
#include "stats/rff.h"
#include "tensor/kernels.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

/// Clears any SBRL_ISA pin for the whole binary (restoring it on
/// teardown): the env outranks every SetActiveIsa choice by design, so
/// a stray operator pin would otherwise fail the forced-level tests
/// spuriously. The isa_baseline ctest variants deliberately do NOT
/// cover this suite for the same reason.
class ClearIsaEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* saved = std::getenv("SBRL_ISA");
    had_value_ = saved != nullptr;
    if (had_value_) saved_ = saved;
    unsetenv("SBRL_ISA");
    SetActiveIsa(IsaChoice::kAuto);
  }
  void TearDown() override {
    if (had_value_) setenv("SBRL_ISA", saved_.c_str(), 1);
    SetActiveIsa(IsaChoice::kAuto);
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

const ::testing::Environment* const kClearIsaEnv =
    ::testing::AddGlobalTestEnvironment(new ClearIsaEnv);

/// Units-in-the-last-place distance (same helper as simd_test).
int64_t UlpDiff(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  const int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

/// Every level this binary + host can actually run.
std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kBaseline};
  if (Isa::kAvx2 <= MaxSupportedIsa()) isas.push_back(Isa::kAvx2);
  if (Isa::kAvx512 <= MaxSupportedIsa()) isas.push_back(Isa::kAvx512);
  return isas;
}

/// RAII guard: forces a level for one scope, restores auto after.
class IsaGuard {
 public:
  explicit IsaGuard(Isa isa) {
    EXPECT_EQ(SetActiveIsa(static_cast<IsaChoice>(static_cast<int>(isa))),
              isa);
  }
  ~IsaGuard() { SetActiveIsa(IsaChoice::kAuto); }
};

TEST(CpuFeaturesTest, DetectionIsConsistent) {
  const CpuFeatures& f = DetectCpuFeatures();
  // Derived bits imply their prerequisites the resolver relies on.
  if (f.avx2) EXPECT_TRUE(f.avx);
  if (f.avx512dq || f.avx512bw || f.avx512vl) EXPECT_TRUE(f.avx512f);
  // The resolvable levels require the matching feature sets.
  if (MaxSupportedIsa() >= Isa::kAvx2) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.fma);
  }
  if (MaxSupportedIsa() >= Isa::kAvx512) {
    EXPECT_TRUE(f.avx512f && f.avx512dq && f.avx512bw && f.avx512vl);
  }
  // The feature string mentions avx2 iff detected.
  const std::string s = CpuFeatureString();
  EXPECT_EQ(s.find("avx2") != std::string::npos, f.avx2);
}

TEST(IsaNamesTest, RoundTrip) {
  for (IsaChoice c : {IsaChoice::kAuto, IsaChoice::kBaseline,
                      IsaChoice::kAvx2, IsaChoice::kAvx512}) {
    IsaChoice parsed;
    ASSERT_TRUE(ParseIsaChoice(IsaChoiceName(c), &parsed));
    EXPECT_EQ(parsed, c);
  }
  IsaChoice parsed;
  EXPECT_FALSE(ParseIsaChoice("sse9", &parsed));
  EXPECT_FALSE(ParseIsaChoice("", &parsed));
  EXPECT_STREQ(IsaName(Isa::kBaseline), "baseline");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
  EXPECT_STREQ(IsaName(Isa::kAvx512), "avx512");
}

TEST(ResolveIsaTest, EnvBeatsConfigAndClampsToHost) {
  // auto -> the maximum; concrete requests clamp down, never up.
  EXPECT_EQ(ResolveIsa(IsaChoice::kAuto, nullptr, Isa::kAvx512),
            Isa::kAvx512);
  EXPECT_EQ(ResolveIsa(IsaChoice::kAuto, nullptr, Isa::kBaseline),
            Isa::kBaseline);
  EXPECT_EQ(ResolveIsa(IsaChoice::kBaseline, nullptr, Isa::kAvx512),
            Isa::kBaseline);
  EXPECT_EQ(ResolveIsa(IsaChoice::kAvx512, nullptr, Isa::kAvx2),
            Isa::kAvx2);
  // A valid env wins over the config choice...
  EXPECT_EQ(ResolveIsa(IsaChoice::kAvx512, "baseline", Isa::kAvx512),
            Isa::kBaseline);
  EXPECT_EQ(ResolveIsa(IsaChoice::kBaseline, "auto", Isa::kAvx2),
            Isa::kAvx2);
  // ...but still clamps, and an unparseable env is ignored.
  EXPECT_EQ(ResolveIsa(IsaChoice::kBaseline, "avx512", Isa::kAvx2),
            Isa::kAvx2);
  EXPECT_EQ(ResolveIsa(IsaChoice::kBaseline, "pentium", Isa::kAvx512),
            Isa::kBaseline);
  EXPECT_EQ(ResolveIsa(IsaChoice::kAuto, "", Isa::kAvx2), Isa::kAvx2);
}

TEST(ActiveIsaTest, SetAndEnvRoundTrip) {
  const char* saved = std::getenv("SBRL_ISA");
  const std::string saved_value = saved == nullptr ? "" : saved;

  for (Isa isa : SupportedIsas()) {
    EXPECT_EQ(SetActiveIsa(static_cast<IsaChoice>(static_cast<int>(isa))),
              isa);
    EXPECT_EQ(ActiveIsa(), isa);
  }
  // The environment overrides any config choice on the next resolve.
  ASSERT_EQ(setenv("SBRL_ISA", "baseline", /*overwrite=*/1), 0);
  EXPECT_EQ(SetActiveIsa(IsaChoice::kAuto), Isa::kBaseline);
  EXPECT_EQ(SetActiveIsa(static_cast<IsaChoice>(
                static_cast<int>(MaxSupportedIsa()))),
            Isa::kBaseline);

  if (saved == nullptr) {
    unsetenv("SBRL_ISA");
  } else {
    setenv("SBRL_ISA", saved_value.c_str(), 1);
  }
  SetActiveIsa(IsaChoice::kAuto);
}

TEST(ActiveIsaTest, ScopedThreadIsaOverridesNestsAndRestores) {
  // The thread-scoped override concurrent runs pin their level with:
  // it wins over the process default, nests, and restores exactly.
  const Isa process_default = ActiveIsa();
  {
    ScopedThreadIsa outer(IsaChoice::kBaseline);
    EXPECT_EQ(outer.resolved(), Isa::kBaseline);
    EXPECT_EQ(ActiveIsa(), Isa::kBaseline);
    // The process default is untouched while the override is active.
    {
      ScopedThreadIsa inner(MaxSupportedIsa());
      EXPECT_EQ(ActiveIsa(), MaxSupportedIsa());
    }
    EXPECT_EQ(ActiveIsa(), Isa::kBaseline);
  }
  EXPECT_EQ(ActiveIsa(), process_default);
}

TEST(ActiveIsaTest, ScopedThreadIsaIsPerThread) {
  // Another thread never sees this thread's override; without one of
  // its own it reads the process default.
  ScopedThreadIsa pin(IsaChoice::kBaseline);
  const Isa process_default = SetActiveIsa(IsaChoice::kAuto);
  Isa seen = Isa::kBaseline;
  std::thread other([&seen]() { seen = ActiveIsa(); });
  other.join();
  EXPECT_EQ(seen, process_default);
  EXPECT_EQ(ActiveIsa(), Isa::kBaseline);
}

TEST(ActiveIsaTest, PoolWorkersInheritTheCallersScopedIsa) {
  // ParallelFor chunks must run at the DISPATCHING thread's level, not
  // the worker's own state — the mechanism that keeps a run's kernels
  // on one level even when a loop escapes to the pool.
  ScopedThreadIsa pin(IsaChoice::kBaseline);
  const int restore_workers = ThreadPool::GlobalParallelism() - 1;
  ThreadPool::ResetGlobalForTest(2);
  constexpr int64_t kChunks = 16;
  std::array<Isa, kChunks> seen;
  seen.fill(MaxSupportedIsa());
  ParallelFor(0, kChunks, 1, [&seen](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) seen[static_cast<size_t>(i)] =
        ActiveIsa();
  });
  ThreadPool::ResetGlobalForTest(restore_workers);
  for (int64_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], Isa::kBaseline)
        << "chunk " << i;
  }
}

// ---------------------------------------------------------------------------
// Cross-ISA agreement of the kernel tables.
// ---------------------------------------------------------------------------

TEST(CrossIsaTest, MatmulAndTransABitwiseIdenticalAcrossLevels) {
  Rng rng(301);
  // Shapes straddling the vector widths, panels, and row unrolls.
  const std::vector<std::array<int64_t, 3>> shapes = {
      {1, 1, 1}, {5, 7, 3}, {67, 33, 129}, {64, 16, 130}, {129, 5, 9}};
  for (const auto& s : shapes) {
    Matrix a = rng.Randn(s[0], s[1]);
    Matrix b = rng.Randn(s[1], s[2]);
    Matrix at = Transpose(a);  // (k x n) for the TransA kernel
    Matrix want(s[0], s[2]), want_ta(s[0], s[2]);
    const LinalgKernels& base = LinalgKernelsForIsa(Isa::kBaseline);
    base.matmul_rows(a.data(), b.data(), want.data(), s[1], s[2], 0, s[0]);
    base.matmul_trans_a_rows(at.data(), b.data(), want_ta.data(), s[1],
                             s[0], s[2], 0, s[0]);
    for (Isa isa : SupportedIsas()) {
      const LinalgKernels& t = LinalgKernelsForIsa(isa);
      Matrix got(s[0], s[2]), got_ta(s[0], s[2]);
      t.matmul_rows(a.data(), b.data(), got.data(), s[1], s[2], 0, s[0]);
      t.matmul_trans_a_rows(at.data(), b.data(), got_ta.data(), s[1], s[0],
                            s[2], 0, s[0]);
      for (int64_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i], got[i])
            << IsaName(isa) << " matmul flat index " << i;
        ASSERT_EQ(want_ta[i], got_ta[i])
            << IsaName(isa) << " transA flat index " << i;
      }
    }
  }
  // The register tiles of the wide TransA kernels: output columns on
  // both sides of every vector width and tile width, output rows on
  // both sides of the 4-row tile (1 = the means shape), reduction
  // lengths from one term to a training batch, and a non-zero initial
  // output (the Into entry points accumulate), all swept over split
  // row ranges so every tile starts mid-matrix too.
  for (int64_t m : {1, 5, 8, 9, 16, 31, 32, 33, 130}) {
    for (int64_t rows : {1, 2, 3, 4, 5, 32}) {
      for (int64_t k : {1, 7, 1000}) {
        Matrix at = rng.Randn(k, rows);
        Matrix b = rng.Randn(k, m);
        const Matrix init = rng.Randn(rows, m);
        const int64_t split = rows / 2;
        Matrix want = init;
        LinalgKernelsForIsa(Isa::kBaseline)
            .matmul_trans_a_rows(at.data(), b.data(), want.data(), k, rows,
                                 m, 0, rows);
        for (Isa isa : SupportedIsas()) {
          const LinalgKernels& t = LinalgKernelsForIsa(isa);
          Matrix got = init;
          t.matmul_trans_a_rows(at.data(), b.data(), got.data(), k, rows, m,
                                0, split);
          t.matmul_trans_a_rows(at.data(), b.data(), got.data(), k, rows, m,
                                split, rows);
          for (int64_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(want[i], got[i])
                << IsaName(isa) << " transA " << rows << "x" << k << "x" << m
                << " flat index " << i;
          }
        }
      }
    }
  }
}

TEST(CrossIsaTest, TransBWithinToleranceOfBaseline) {
  Rng rng(302);
  const std::vector<std::array<int64_t, 3>> shapes = {
      {1, 1, 1}, {5, 7, 3}, {67, 33, 29}, {63, 8, 130}};
  for (const auto& s : shapes) {
    Matrix a = rng.Randn(s[0], s[1]);
    Matrix bt = rng.Randn(s[2], s[1]);  // (m x k)
    Matrix want(s[0], s[2]);
    LinalgKernelsForIsa(Isa::kBaseline)
        .matmul_trans_b_rows(a.data(), bt.data(), want.data(), s[1], s[2],
                             0, s[0]);
    for (Isa isa : SupportedIsas()) {
      Matrix got(s[0], s[2]);
      LinalgKernelsForIsa(isa).matmul_trans_b_rows(
          a.data(), bt.data(), got.data(), s[1], s[2], 0, s[0]);
      EXPECT_TRUE(AllClose(want, got, 1e-12))
          << IsaName(isa) << " at " << s[0] << "x" << s[1] << "x" << s[2];
      // Re-running the same level reproduces the same bits
      // (within-level determinism).
      Matrix again(s[0], s[2]);
      LinalgKernelsForIsa(isa).matmul_trans_b_rows(
          a.data(), bt.data(), again.data(), s[1], s[2], 0, s[0]);
      EXPECT_TRUE(AllClose(got, again, 0.0)) << IsaName(isa);
    }
  }
}

TEST(CrossIsaTest, TransBRowsBitwiseInvariantToRowRoute) {
  // A row range may reach a row through the 2-row panel, the AVX-512
  // eight-row branch (m < 4) or the lone-row loop, depending on where
  // ParallelFor split it; every route must give the row the same bits.
  // m in {1, 2, 3} with n >= 8 reaches the eight-row branch, whose
  // shapes no tolerance test above covers.
  Rng rng(306);
  const std::vector<std::array<int64_t, 3>> shapes = {
      {16, 7, 1}, {17, 33, 3}, {24, 17, 5}, {9, 8, 2}, {63, 25, 64}};
  for (const auto& s : shapes) {
    const int64_t n = s[0], k = s[1], m = s[2];
    Matrix a = rng.Randn(n, k);
    Matrix bt = rng.Randn(m, k);  // (m x k)
    const Matrix init = rng.Randn(n, m);
    for (Isa isa : SupportedIsas()) {
      const LinalgKernels& t = LinalgKernelsForIsa(isa);
      Matrix whole = init, by_row = init;
      t.matmul_trans_b_rows(a.data(), bt.data(), whole.data(), k, m, 0, n);
      for (int64_t i = 0; i < n; ++i) {
        t.matmul_trans_b_rows(a.data(), bt.data(), by_row.data(), k, m, i,
                              i + 1);
      }
      for (int64_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(whole[i], by_row[i])
            << IsaName(isa) << " transB " << n << "x" << k << "x" << m
            << " flat index " << i;
      }
    }
  }
}

TEST(CrossIsaTest, BlockCrossFwdBitwiseAndGradDwBounded) {
  Rng rng(303);
  const int64_t n = 120, d = 6, k = kBlockCrossWidth;
  Matrix f = rng.Randn(n, d * k);
  Matrix w = rng.Rand(n, 1, 0.5, 2.0);
  std::vector<std::pair<int64_t, int64_t>> pairs = {
      {0, 1}, {2, 5}, {4, 4}, {5, 0}, {1, 3}};
  const int64_t np = static_cast<int64_t>(pairs.size());
  Matrix g = rng.Randn(np * k, k);

  Matrix want(np * k, k);
  Matrix want_dw(n, 1);
  const LinalgKernels& base = LinalgKernelsForIsa(Isa::kBaseline);
  base.block_cross_fwd(f.data(), w.data(), want.data(), n, f.cols(),
                       pairs.data(), 0, np);
  base.block_cross_grad_dw(g.data(), f.data(), want_dw.data(), f.cols(),
                           pairs.data(), np, 0, n);
  std::vector<Matrix> level_dw;
  for (Isa isa : SupportedIsas()) {
    const LinalgKernels& t = LinalgKernelsForIsa(isa);
    Matrix got(np * k, k);
    Matrix got_dw(n, 1);
    t.block_cross_fwd(f.data(), w.data(), got.data(), n, f.cols(),
                      pairs.data(), 0, np);
    t.block_cross_grad_dw(g.data(), f.data(), got_dw.data(), f.cols(),
                          pairs.data(), np, 0, n);
    // Forward: exact bitwise equality at every level.
    for (int64_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << IsaName(isa) << " flat " << i;
    }
    // dw: the wide levels regroup the dot products (tight relative
    // tolerance).
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got_dw[i], want_dw[i],
                  1e-11 * std::max(1.0, std::abs(want_dw[i])))
          << IsaName(isa) << " row " << i;
    }
    level_dw.push_back(std::move(got_dw));
  }
  // The AVX-512 table's dw entry is the AVX2 kernel: bitwise equal.
  if (level_dw.size() == 3) {
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(level_dw[2][i], level_dw[1][i]) << "avx512 vs avx2 row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-ISA cosine sweep: accuracy bound and worker-count invariance.
// ---------------------------------------------------------------------------

TEST(CrossIsaTest, CosSweepWithinUlpBoundAtEveryLevel) {
  const int64_t n = 10000;
  std::vector<double> xs(n), ys(n);
  Rng rng(304);
  for (int64_t i = 0; i < n; ++i) {
    xs[i] = rng.Normal(0.0, 10.0);
  }
  xs[0] = 0.0;
  xs[1] = -0.0;
  xs[2] = 3.14159265358979312;
  xs[3] = 1e300;
  for (Isa isa : SupportedIsas()) {
    IsaGuard guard(isa);
    ys = xs;
    ScaledCosInPlace(ys.data(), n, 1.0);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_LE(UlpDiff(std::cos(xs[i]), ys[i]), kVecCosMaxUlp)
          << IsaName(isa) << " at x = " << xs[i];
    }
  }
}

TEST(CrossIsaTest, ResultsBitwiseInvariantToWorkerCountPerLevel) {
  Rng rng(305);
  // Big enough that the parallel paths engage (> 64K flops / elements).
  Matrix a = rng.Randn(96, 96);
  Matrix b = rng.Randn(96, 96);
  std::vector<double> angles(20000);
  for (auto& v : angles) v = rng.Normal(0.0, 5.0);

  for (Isa isa : SupportedIsas()) {
    IsaGuard guard(isa);
    Matrix mm_serial, mm_parallel;
    std::vector<double> cos_serial = angles, cos_parallel = angles;

    ThreadPool::ResetGlobalForTest(0);
    mm_serial = Matmul(a, b);
    ScaledCosInPlace(cos_serial.data(),
                     static_cast<int64_t>(cos_serial.size()), 2.0);
    ThreadPool::ResetGlobalForTest(2);
    mm_parallel = Matmul(a, b);
    ScaledCosInPlace(cos_parallel.data(),
                     static_cast<int64_t>(cos_parallel.size()), 2.0);
    ThreadPool::ResetGlobalForTest(0);

    EXPECT_TRUE(AllClose(mm_serial, mm_parallel, 0.0)) << IsaName(isa);
    for (size_t i = 0; i < angles.size(); ++i) {
      ASSERT_EQ(cos_serial[i], cos_parallel[i])
          << IsaName(isa) << " element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// MT19937-64 refill entry: the std engine's words and the scalar
// Canonical53 conversion, bit for bit at every level.
// ---------------------------------------------------------------------------

/// Replays one 64-bit output, to convert it with the scalar Canonical53.
struct OneWordEngine {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  uint64_t word;
};

double ScalarCanonical(uint64_t word) {
  OneWordEngine engine{word};
  return Canonical53(engine);
}

/// One refill's outputs.
struct RefillBlock {
  std::vector<uint64_t> out = std::vector<uint64_t>(kMt19937_64Words);
  std::vector<double> canonical = std::vector<double>(kMt19937_64Words);
  std::vector<double> coordinate = std::vector<double>(kMt19937_64Words);
};

RefillBlock Refill(Isa isa, std::vector<uint64_t>* state) {
  RefillBlock block;
  LinalgKernelsForIsa(isa).mt19937_64_refill(state->data(), block.out.data(),
                                             block.canonical.data(),
                                             block.coordinate.data());
  return block;
}

/// Every word's canonical and coordinate are the scalar conversions.
void ExpectScalarConversions(const RefillBlock& block) {
  for (int i = 0; i < kMt19937_64Words; ++i) {
    const double c = ScalarCanonical(block.out[i]);
    ASSERT_EQ(block.canonical[i], c) << "word " << i;
    ASSERT_EQ(block.coordinate[i], 2.0 * c - 1.0) << "word " << i;
  }
}

/// Inverse of MT19937-64's tempering.
uint64_t Untemper(uint64_t y) {
  y ^= y >> 43;
  y ^= (y << 37) & 0xfff7eee000000000ULL;
  uint64_t z = y;
  for (int i = 0; i < 4; ++i) z = y ^ ((z << 17) & 0x71d67fffeda60000ULL);
  y = z;
  for (int i = 0; i < 3; ++i) z = y ^ ((z >> 29) & 0x5555555555555555ULL);
  return z;
}

TEST(CrossIsaTest, Mt19937RefillMatchesStdEngineAtEveryLevel) {
  for (uint64_t seed : {uint64_t{5489}, uint64_t{42}, ~uint64_t{0}}) {
    for (Isa isa : SupportedIsas()) {
      SCOPED_TRACE(std::string(IsaName(isa)) + ", seed " +
                   std::to_string(seed));
      // std::mt19937_64's seeding.
      std::vector<uint64_t> state(kMt19937_64Words);
      state[0] = seed;
      for (int i = 1; i < kMt19937_64Words; ++i) {
        const uint64_t prev = state[i - 1];
        state[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                   static_cast<uint64_t>(i);
      }
      std::mt19937_64 reference(seed);
      for (int refill = 0; refill < 5; ++refill) {
        const RefillBlock block = Refill(isa, &state);
        for (int i = 0; i < kMt19937_64Words; ++i) {
          ASSERT_EQ(block.out[i], reference())
              << "refill " << refill << " word " << i;
        }
        ExpectScalarConversions(block);
      }
    }
  }
}

TEST(CrossIsaTest, Mt19937RefillConvertsEdgeWordsAtEveryLevel) {
  const uint64_t kTwo53 = uint64_t{1} << 53;
  const std::vector<uint64_t> edges = {
      0, 1, kTwo53 - 1, kTwo53 + 1, ~uint64_t{0},
      ~uint64_t{0} - 1023,  // 2^64 - 1024: a tie rounding up to 2^64
  };
  // Values fixed by IEEE round-to-nearest-even: 2^53 + 1 ties to 2^53,
  // and both top words round to 2^64, which clamps to nextafter(1, 0).
  const double kBelowOne = std::nextafter(1.0, 0.0);
  const std::vector<double> want = {
      0.0, 0x1p-64, (0x1p53 - 1.0) * 0x1p-64, 0x1p-11, kBelowOne, kBelowOne};
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(IsaName(isa));
    // With words k and k + 1 zero, the twist sets word k to word k + m
    // (m = 156), so the untempered edges at m.. come out as words 0...
    std::vector<uint64_t> state(kMt19937_64Words, 0);
    for (size_t e = 0; e < edges.size(); ++e) {
      state[156 + e] = Untemper(edges[e]);
    }
    const RefillBlock block = Refill(isa, &state);
    for (size_t e = 0; e < edges.size(); ++e) {
      SCOPED_TRACE("edge " + std::to_string(edges[e]));
      ASSERT_EQ(block.out[e], edges[e]);
      EXPECT_EQ(block.canonical[e], want[e]);
      EXPECT_EQ(block.canonical[e], ScalarCanonical(edges[e]));
      EXPECT_EQ(block.coordinate[e], 2.0 * want[e] - 1.0);
    }
    ExpectScalarConversions(block);
  }
}

}  // namespace
}  // namespace sbrl
