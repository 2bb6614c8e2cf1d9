// Absolute lock of the trained bits. golden_trace_test only compares
// runs with each other, so a change that moves every trained parameter
// the same way in every run passes it; this suite pins the bits
// themselves. For each of the nine methods (TARNet / CFR / DeR-CFR x
// vanilla / SBRL / SBRL-HAP), a short fixed-seed fit on the
// golden-trace shapes (600 x 10, 6 iterations, a 150-row validation
// split) is hashed with FNV-1a 64 over its loss, weight-loss and
// validation traces, final parameters and sample weights, and compared
// with pinned constants.
//
// The bits depend on the kernel level and on the host's libm / libmvec
// (expm1 is an ifunc whose FMA and non-FMA variants round differently),
// so the constants are keyed by (ISA level, libm fingerprint). The
// fingerprint hashes std::expm1 / std::exp / std::log1p / std::tanh /
// std::cos over a fixed probe grid, plus libmvec's vector expm1 and cos
// of that level at the wide levels (the ELU and RFF cosine kernels call
// them directly). The suite runs at SBRL_ISA=baseline and at
// the resolved level; the `_isa_avx2` ctest variant pins the middle
// level on hosts that resolve to avx512. An unknown key fails with the hashes this host
// produced and instructions for adding them; it is never skipped.
//
// Estimator stability over fixed replications (Kuenzel et al.,
// "Causaltoolbox - Estimator Stability") is the motivation: a silent
// numerical change should surface as a named, explained diff here.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "training_trace.h"

#if defined(__x86_64__)
#include <immintrin.h>

extern "C" {
__m256d _ZGVdN4v_expm1(__m256d);
__m512d _ZGVeN8v_expm1(__m512d);
__m256d _ZGVdN4v_cos(__m256d);
__m512d _ZGVeN8v_cos(__m512d);
}
#endif

namespace sbrl {
namespace {

constexpr size_t kMethods = 9;

uint64_t Fnv1a64(uint64_t h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashDoubles(uint64_t h, const std::vector<double>& v) {
  return Fnv1a64(h, v.data(), v.size() * sizeof(double));
}

/// The probe grid: 4096 points over [-40, 5], off any round grid.
std::vector<double> ProbeInputs() {
  std::vector<double> xs(4096);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = -40.0 + 45.0 * (static_cast<double>(i) + 0.318309886) / 4096.0;
  }
  return xs;
}

#if defined(__x86_64__)
/// Applies a 4-lane libmvec function over `v` (size a multiple of 4).
__attribute__((target("avx2"))) void MapAvx2(__m256d (*fn)(__m256d),
                                             std::vector<double>* v) {
  for (size_t i = 0; i < v->size(); i += 4) {
    _mm256_storeu_pd(v->data() + i, fn(_mm256_loadu_pd(v->data() + i)));
  }
}

/// Applies an 8-lane libmvec function over `v` (size a multiple of 8).
__attribute__((target("avx512f"))) void MapAvx512(__m512d (*fn)(__m512d),
                                                  std::vector<double>* v) {
  for (size_t i = 0; i < v->size(); i += 8) {
    _mm512_storeu_pd(v->data() + i, fn(_mm512_loadu_pd(v->data() + i)));
  }
}
#endif

/// Fingerprint of the math library as training at `isa` sees it.
uint64_t LibmFingerprint(const std::string& isa) {
  const std::vector<double> xs = ProbeInputs();
  std::vector<double> ys;
  for (double x : xs) {
    ys.push_back(std::expm1(x));
    ys.push_back(std::exp(x));
    ys.push_back(std::log1p(std::abs(x)));
    ys.push_back(std::tanh(x));
    ys.push_back(std::cos(x));
  }
  uint64_t h = HashDoubles(0xcbf29ce484222325ULL, ys);
#if defined(__x86_64__)
  std::vector<double> expm1 = xs, cos = xs;
  if (isa == "avx2") {
    MapAvx2(_ZGVdN4v_expm1, &expm1);
    MapAvx2(_ZGVdN4v_cos, &cos);
  } else if (isa == "avx512") {
    MapAvx512(_ZGVeN8v_expm1, &expm1);
    MapAvx512(_ZGVeN8v_cos, &cos);
  }
  if (isa == "avx2" || isa == "avx512") {
    h = HashDoubles(h, expm1);
    h = HashDoubles(h, cos);
  }
#endif
  return h;
}

/// Hash of one fit's whole trace.
uint64_t TraceHash(const trace::Trace& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<double>* v :
       {&t.train_loss, &t.weight_loss, &t.valid_loss, &t.params,
        &t.weights}) {
    h = HashDoubles(h, *v);
  }
  return h;
}

/// Fits every locked method at `choice`; returns the resolved level
/// and the per-method hashes.
std::pair<std::string, std::array<uint64_t, kMethods>> HashAllMethods(
    IsaChoice choice) {
  const CausalDataset data = trace::MakeDataset();
  std::vector<int64_t> valid_rows, train_rows;
  for (int64_t i = 0; i < trace::kSamples; ++i) {
    (i < 150 ? valid_rows : train_rows).push_back(i);
  }
  const CausalDataset valid = data.Subset(valid_rows);
  const CausalDataset train = data.Subset(train_rows);
  std::array<uint64_t, kMethods> hashes{};
  std::string isa;
  size_t k = 0;
  for (BackboneKind backbone :
       {BackboneKind::kTarnet, BackboneKind::kCfr, BackboneKind::kDerCfr}) {
    for (FrameworkKind framework : {FrameworkKind::kVanilla,
                                    FrameworkKind::kSbrl,
                                    FrameworkKind::kSbrlHap}) {
      EstimatorConfig config = trace::SmallConfig();
      config.backbone = backbone;
      config.framework = framework;
      config.sbrl.isa = choice;
      const trace::Trace t = trace::RunTrace(config, &train, &valid);
      isa = t.isa;
      hashes[k++] = TraceHash(t);
    }
  }
  return {isa, hashes};
}

/// One pinned set: the hashes of every locked method at one level on
/// one libm variant.
struct LockSet {
  const char* isa;
  uint64_t libm;
  std::array<uint64_t, kMethods> hashes;
};

// Order: TARNet, CFR, DeR-CFR x {vanilla, SBRL, SBRL-HAP}. The f64 ELU
// and the RFF cosine run scalar std::expm1 / std::cos in the baseline
// sets and libmvec's vector expm1 / cos in the wide-level sets.
// Re-pinned when the cosine moved from the fast-math auto-vectorized
// TUs into the per-ISA kernel tables: the baseline SBRL sets moved because baseline now runs scalar
// std::cos instead of the SSE2 _ZGVbN2v_cos; the wide-level training
// hashes kept their bits except avx512 under the non-FMA libm, whose
// CFR / DeR-CFR SBRL-HAP fits lost the 4-lane _ZGVdN4v_cos epilogue
// (masked to its SSE fallback there) and now equal the default-libm
// hashes; every wide-level fingerprint moved because it now hashes the
// vector cos too.
constexpr LockSet kLockSets[] = {
    // glibc 2.36 (x86-64), default ifunc selection: the FMA variants of
    // libm on an AVX-512 host.
    {"baseline", 0x296efd9dca7b4971ULL,
     {0x2df71dda796a8c15ULL, 0x8039ded953d05ab8ULL, 0x20822a2bae4a4b0eULL,
      0xdefefd664c514e91ULL, 0xa4d8916ae9600181ULL, 0x396418d43d4069bdULL,
      0xe325c8a5e52df701ULL, 0xbaad365154bf00c9ULL, 0xcf8d77bad4c8ff81ULL}},
    {"avx2", 0xba69368c9aefea63ULL,
     {0x1dc6900eacbed56dULL, 0x13c6806997be5a1cULL, 0x18a997c9f0e4af54ULL,
      0xa21d668bfb9ebdd9ULL, 0x18cdf9560278b8cbULL, 0x076f5294e706e629ULL,
      0xba28714c7b64c680ULL, 0x8be30174ef2057fcULL, 0x478aa623c08f05dcULL}},
    {"avx512", 0x32a8dac73cffd60aULL,
     {0xb48ae3b18093da2aULL, 0xd7409fc650c4d5aeULL, 0xb4e7fed3212f68f9ULL,
      0x34468ce3b90afe58ULL, 0x88db7c9b33770a0bULL, 0x3d459f5804e648f3ULL,
      0xcf8187ea99bb04cfULL, 0x146a9e2f331cb360ULL, 0x5e487519e99a328fULL}},
    // glibc 2.36 (x86-64) with GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA:
    // the non-FMA libm / libmvec variants on the same host.
    {"baseline", 0xc066b524dd642bcfULL,
     {0x57ce552f66c502e9ULL, 0x3d5166c4c85b0febULL, 0x9bbd2665bc0842a4ULL,
      0x30c9a92fff95d1f4ULL, 0x5abaf6c1f98dd401ULL, 0x64641c0508006be4ULL,
      0xac8f326a5fccddd9ULL, 0x60daf2b3b46a26baULL, 0xfe8359658e18e04eULL}},
    {"avx2", 0x82c72ea53b53090dULL,
     {0x1e1c68e358c48e60ULL, 0xd3bfb9f841940388ULL, 0x3a88a5b2a2f80620ULL,
      0x8e4e680549528383ULL, 0x20a413006724da19ULL, 0x33ea3a1154f5ae04ULL,
      0xbf94a68e2473413fULL, 0xd716efe6e1e8121eULL, 0xb2a64cce65ac1541ULL}},
    {"avx512", 0x1edc2b80edcd3a1cULL,
     {0xb48ae3b18093da2aULL, 0xd7409fc650c4d5aeULL, 0xb4e7fed3212f68f9ULL,
      0x34468ce3b90afe58ULL, 0x88db7c9b33770a0bULL, 0x3d459f5804e648f3ULL,
      0xc0d2cc4aae7edc53ULL, 0x346eed18a67736caULL, 0x5e487519e99a328fULL}},
};

TEST(TrainingLockTest, HashesMatchPinnedTraining) {
  std::vector<IsaChoice> choices = {Isa::kBaseline};
  if (ResolveIsa(std::nullopt, std::getenv("SBRL_ISA"),
                 MaxSupportedIsa()) != Isa::kBaseline) {
    choices.push_back(std::nullopt);
  }
  for (IsaChoice choice : choices) {
    const auto [isa, got] = HashAllMethods(choice);
    const uint64_t libm = LibmFingerprint(isa);
    std::string dump;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"%s\", 0x%016llxULL, {", isa.c_str(),
                  static_cast<unsigned long long>(libm));
    dump += buf;
    for (uint64_t h : got) {
      std::snprintf(buf, sizeof(buf), "0x%016llxULL, ",
                    static_cast<unsigned long long>(h));
      dump += buf;
    }
    dump += "}},";
    const LockSet* pinned = nullptr;
    for (const LockSet& set : kLockSets) {
      if (isa == set.isa && libm == set.libm) pinned = &set;
    }
    if (pinned == nullptr) {
      ADD_FAILURE() << "no pinned training hashes for isa " << isa
                    << " with libm fingerprint " << std::hex << libm
                    << ". This host's math library is new to the lock. "
                    << "Check that the parent commit's training bits on "
                    << "this host are the ones you want pinned, then add "
                    << "this entry to kLockSets with a comment naming "
                    << "the host's glibc and libm variant:\n"
                    << dump;
      continue;
    }
    EXPECT_EQ(got, pinned->hashes)
        << "trained bits moved at isa " << isa
        << ". If the change is intended, replace this set's hashes "
        << "and say why in CHANGES.md:\n"
        << dump;
  }
}

}  // namespace
}  // namespace sbrl
