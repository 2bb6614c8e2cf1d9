#ifndef SBRL_COMMON_CPU_H_
#define SBRL_COMMON_CPU_H_

#include <optional>
#include <string>

namespace sbrl {

/// x86 feature bits the kernel-dispatch layer cares about, read once
/// per process via cpuid (plus XGETBV for the OS-enabled register
/// state). On non-x86 builds every field is false.
struct CpuFeatures {
  /// AVX instructions usable (cpuid bit AND the OS saves ymm state).
  bool avx = false;
  /// AVX2 256-bit integer/permute extensions.
  bool avx2 = false;
  /// Fused multiply-add (FMA3).
  bool fma = false;
  /// AVX-512 foundation (and the OS saves zmm/opmask state).
  bool avx512f = false;
  /// AVX-512 doubleword/quadword extension.
  bool avx512dq = false;
  /// AVX-512 byte/word extension.
  bool avx512bw = false;
  /// AVX-512 128/256-bit vector-length extension.
  bool avx512vl = false;
};

/// Feature bits of the host CPU, detected on first call and cached for
/// the process lifetime. Detection never throws; on non-x86 targets or
/// when cpuid is unavailable it returns all-false.
const CpuFeatures& DetectCpuFeatures();

/// Compact space-separated listing of the detected features (e.g.
/// "avx avx2 fma avx512f avx512dq avx512bw avx512vl" or "none"), for
/// logs and BENCH_*.json run metadata.
std::string CpuFeatureString();

/// Compiler + flag string of this build (compiler version and the
/// optimization flags the library was compiled with), for BENCH_*.json
/// run metadata so perf trajectories are comparable across hosts.
std::string BuildFlagsString();

/// Resolved instruction-set level of the kernel-dispatch tables (see
/// tensor/kernels.h). Levels are strictly ordered: every level's
/// kernels are also valid at the levels above it.
///
/// kBaseline is the portable x86-64 (SSE2) build — bit for bit the
/// pre-dispatch kernels, and the reference the wider tables are tested
/// against. kAvx2 requires avx2 + fma (x86-64-v3); kAvx512 additionally
/// requires avx512f/dq/bw/vl (x86-64-v4).
enum class Isa {
  kBaseline = 0,  ///< portable SSE2 kernels (the pre-dispatch code)
  kAvx2 = 1,      ///< 256-bit kernels (requires avx2 + fma)
  kAvx512 = 2,    ///< 512-bit kernels (requires avx512f/dq/bw/vl)
};

/// Requested ISA level: a concrete Isa, or std::nullopt ("auto") for
/// the widest level the host supports. This is what SbrlConfig::isa and
/// the SBRL_ISA environment variable express; ResolveIsa turns it into
/// an Isa, clamped to what the host and build actually provide.
using IsaChoice = std::optional<Isa>;

/// Lowercase Isa name: "baseline" / "avx2" / "avx512".
const char* IsaName(Isa isa);

/// Lowercase IsaChoice name: "auto" for std::nullopt, else IsaName.
const char* IsaChoiceName(IsaChoice choice);

/// Parses "auto" / "baseline" / "avx2" / "avx512" (the SBRL_ISA
/// grammar) into `*out`, returning false on any other string.
bool ParseIsaChoice(const std::string& text, IsaChoice* out);

/// Widest Isa level this process can execute: the minimum of what the
/// host CPU supports (DetectCpuFeatures) and what this binary was built
/// with (per-ISA kernel translation units are compiled only when the
/// toolchain accepts the -march flags; see CMakeLists.txt).
Isa MaxSupportedIsa();

/// Pure resolution rule shared by every entry point (and unit-testable
/// without touching process state): `env` — the raw SBRL_ISA value, or
/// null/empty when unset — takes precedence over `choice` when
/// it parses (an unparseable value is ignored, with a one-time warning
/// elsewhere); auto resolves to `max_supported`; anything wider than
/// `max_supported` is clamped down to it.
Isa ResolveIsa(IsaChoice choice, const char* env, Isa max_supported);

/// The ISA level every kernel dispatch reads. A thread-scoped override
/// (ScopedThreadIsa) wins when one is active on the calling thread;
/// otherwise the process-wide default applies, resolved on first use as
/// ResolveIsa(auto, getenv("SBRL_ISA"), MaxSupportedIsa()) and
/// re-resolvable via SetActiveIsa. Reading is one thread-local load
/// plus (on the fallback path) one relaxed atomic load — cheap enough
/// for per-call dispatch.
Isa ActiveIsa();

/// Re-resolves the PROCESS-WIDE default ISA from `choice` under the
/// rule of ResolveIsa — the SBRL_ISA environment variable, if set and
/// valid, still wins — and returns the level now active. Thread-scoped
/// overrides are unaffected. Safe to call between kernel invocations;
/// must not race an in-flight kernel (callers swap at step boundaries,
/// e.g. a micro-bench's per-level loop). Training runs do NOT use this:
/// they pin their level with ScopedThreadIsa so concurrent runs with
/// different configs cannot race on process state.
Isa SetActiveIsa(IsaChoice choice);

/// RAII thread-scoped ISA override: while alive, ActiveIsa() on the
/// constructing thread returns the pinned level; destruction restores
/// whatever override (or none) was active before, so scopes nest.
/// Other threads are unaffected — EXCEPT that ThreadPool::ParallelFor
/// propagates the caller's ActiveIsa() to its workers for the duration
/// of each loop, so a run's inner fan-out always executes at the run's
/// pinned level (the sweep-determinism contract; see
/// docs/ARCHITECTURE.md "Experiment engine").
class ScopedThreadIsa {
 public:
  /// Pins the resolution of `choice` (SBRL_ISA env > choice > auto,
  /// clamped to the host — the SetActiveIsa rule, applied to this
  /// thread only).
  explicit ScopedThreadIsa(IsaChoice choice);
  /// Pins an already-resolved level exactly (no re-resolution). Used by
  /// the pool to propagate a caller's level into its workers. A bare
  /// Isa picks this overload; IsaChoice(isa) resolves instead.
  explicit ScopedThreadIsa(Isa isa);
  ~ScopedThreadIsa();

  ScopedThreadIsa(const ScopedThreadIsa&) = delete;
  ScopedThreadIsa& operator=(const ScopedThreadIsa&) = delete;

  /// The level this scope pinned (what ActiveIsa() returns inside it).
  Isa resolved() const { return resolved_; }

 private:
  int saved_;  // previous thread override (-1: none was active)
  Isa resolved_;
};

}  // namespace sbrl

#endif  // SBRL_COMMON_CPU_H_
