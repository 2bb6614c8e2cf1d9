#include "common/cpu.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SBRL_CPU_X86 1
#endif

namespace sbrl {

namespace {

#ifdef SBRL_CPU_X86

/// XGETBV(0): the XCR0 register describing which register state the OS
/// saves across context switches. cpuid feature bits alone are not
/// enough — AVX is only usable when the OS restores ymm (XCR0 bits
/// 1|2), AVX-512 only when it also restores opmask/zmm (bits 5|6|7).
uint64_t ReadXcr0() {
  uint32_t eax = 0, edx = 0;
  __asm__ __volatile__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

CpuFeatures DetectImpl() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool cpu_avx = (ecx & (1u << 28)) != 0;
  const bool cpu_fma = (ecx & (1u << 12)) != 0;
  if (!osxsave) return f;  // OS saves no extended state: SSE2 only
  const uint64_t xcr0 = ReadXcr0();
  const bool ymm_enabled = (xcr0 & 0x6) == 0x6;          // XMM | YMM
  const bool zmm_enabled = (xcr0 & 0xe6) == 0xe6;        // + opmask/ZMM
  f.avx = cpu_avx && ymm_enabled;
  f.fma = cpu_fma && ymm_enabled;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = f.avx && (ebx & (1u << 5)) != 0;
    f.avx512f = zmm_enabled && (ebx & (1u << 16)) != 0;
    f.avx512dq = f.avx512f && (ebx & (1u << 17)) != 0;
    f.avx512bw = f.avx512f && (ebx & (1u << 30)) != 0;
    f.avx512vl = f.avx512f && (ebx & (1u << 31)) != 0;
  }
  return f;
}

#else  // !SBRL_CPU_X86

CpuFeatures DetectImpl() { return CpuFeatures{}; }

#endif

/// Widest level the per-ISA kernel translation units were compiled for.
/// SBRL_HAVE_ISA_* come from CMake, set only when the toolchain accepts
/// the corresponding -march flags.
constexpr Isa kMaxCompiledIsa =
#if defined(SBRL_HAVE_ISA_AVX512)
    Isa::kAvx512;
#elif defined(SBRL_HAVE_ISA_AVX2)
    Isa::kAvx2;
#else
    Isa::kBaseline;
#endif

/// Process-wide active ISA as an int; -1 before first resolution.
std::atomic<int> g_active_isa{-1};

/// Thread-scoped override installed by ScopedThreadIsa; -1 when no
/// scope is active on this thread (fall through to the global).
thread_local int t_thread_isa = -1;

/// Warns once per process about an unparseable SBRL_ISA value.
void WarnBadEnvOnce(const char* env) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    SBRL_LOG(Warning) << "ignoring unparseable SBRL_ISA value '" << env
                      << "' (expected auto|baseline|avx2|avx512)";
  }
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = DetectImpl();
  return features;
}

std::string CpuFeatureString() {
  const CpuFeatures& f = DetectCpuFeatures();
  std::string s;
  const auto add = [&s](bool have, const char* name) {
    if (!have) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  add(f.avx512dq, "avx512dq");
  add(f.avx512bw, "avx512bw");
  add(f.avx512vl, "avx512vl");
  return s.empty() ? "none" : s;
}

std::string BuildFlagsString() {
  std::string s = "compiler=";
#if defined(__VERSION__)
  s += __VERSION__;
#else
  s += "unknown";
#endif
#if defined(SBRL_BUILD_FLAGS)
  s += " flags=";
  s += SBRL_BUILD_FLAGS;
#endif
  return s;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kBaseline: return "baseline";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

const char* IsaChoiceName(IsaChoice choice) {
  return choice ? IsaName(*choice) : "auto";
}

bool ParseIsaChoice(const std::string& text, IsaChoice* out) {
  if (text == "auto") { *out = std::nullopt; return true; }
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (text == IsaName(isa)) { *out = isa; return true; }
  }
  return false;
}

Isa MaxSupportedIsa() {
  const CpuFeatures& f = DetectCpuFeatures();
  Isa host = Isa::kBaseline;
  if (f.avx2 && f.fma) host = Isa::kAvx2;
  if (host == Isa::kAvx2 && f.avx512f && f.avx512dq && f.avx512bw &&
      f.avx512vl) {
    host = Isa::kAvx512;
  }
  return host < kMaxCompiledIsa ? host : kMaxCompiledIsa;
}

Isa ResolveIsa(IsaChoice choice, const char* env, Isa max_supported) {
  if (env != nullptr && *env != '\0') {
    IsaChoice parsed;
    if (ParseIsaChoice(env, &parsed)) {
      choice = parsed;  // the environment wins over the config
    } else {
      WarnBadEnvOnce(env);
    }
  }
  if (!choice) return max_supported;
  return *choice < max_supported ? *choice : max_supported;
}

Isa ActiveIsa() {
  if (t_thread_isa >= 0) return static_cast<Isa>(t_thread_isa);
  const int cached = g_active_isa.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<Isa>(cached);
  return SetActiveIsa(std::nullopt);
}

Isa SetActiveIsa(IsaChoice choice) {
  const Isa resolved =
      ResolveIsa(choice, std::getenv("SBRL_ISA"), MaxSupportedIsa());
  g_active_isa.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

ScopedThreadIsa::ScopedThreadIsa(IsaChoice choice)
    : saved_(t_thread_isa),
      resolved_(
          ResolveIsa(choice, std::getenv("SBRL_ISA"), MaxSupportedIsa())) {
  t_thread_isa = static_cast<int>(resolved_);
}

ScopedThreadIsa::ScopedThreadIsa(Isa isa)
    : saved_(t_thread_isa), resolved_(isa) {
  t_thread_isa = static_cast<int>(resolved_);
}

ScopedThreadIsa::~ScopedThreadIsa() { t_thread_isa = saved_; }

}  // namespace sbrl
