#ifndef SBRL_COMMON_PRECISION_H_
#define SBRL_COMMON_PRECISION_H_

#include <string>

namespace sbrl {

/// Numeric storage tier of the serving forward, in the pattern of
/// CosineMode: a reference tier that every contract is stated against,
/// plus a cheap tier that is opt-in and tolerance-bounded against the
/// reference.
///
/// Serving (serve/serving_model.h) is the only f32 tier — see
/// ARCHITECTURE.md "Precision tiers" for its budgets. Training and the
/// streamed sharded passes always run in f64: the bitwise
/// cross-ISA/cross-thread contracts are stated on doubles and are not
/// renegotiated by this knob.
enum class Precision {
  kF64,  ///< double storage everywhere — reference tier, the default.
  kF32,  ///< float storage of the serving forward.
};

/// "f64" / "f32" — used in logs, bench JSON lane names, and knob
/// round-tripping.
const char* PrecisionName(Precision p);

/// Parses "f64" / "f32" (exact match). Returns false on anything else
/// and leaves `*out` untouched.
bool ParsePrecision(const std::string& text, Precision* out);

/// Resolves the effective serving tier: SBRL_PRECISION env var when set
/// to a valid name (takes precedence, same override pattern as SBRL_ISA
/// / SBRL_RECOVERY), otherwise `fallback`. An invalid env value is
/// ignored, not fatal — it logs one warning per process naming the
/// accepted values and falls back.
Precision ResolvePrecision(Precision fallback);

}  // namespace sbrl

#endif  // SBRL_COMMON_PRECISION_H_
