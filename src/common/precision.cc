#include "common/precision.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"

namespace sbrl {

namespace {

/// Warns once per process about an unparseable SBRL_PRECISION value.
void WarnBadEnvOnce(const char* env) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    SBRL_LOG(Warning) << "ignoring unparseable SBRL_PRECISION value '" << env
                      << "' (expected f64|f32)";
  }
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kF64: return "f64";
    case Precision::kF32: return "f32";
  }
  return "f64";
}

bool ParsePrecision(const std::string& text, Precision* out) {
  if (text == "f64") {
    *out = Precision::kF64;
    return true;
  }
  if (text == "f32") {
    *out = Precision::kF32;
    return true;
  }
  return false;
}

Precision ResolvePrecision(Precision fallback) {
  const char* env = std::getenv("SBRL_PRECISION");
  if (env != nullptr && *env != '\0') {
    Precision parsed;
    if (ParsePrecision(env, &parsed)) return parsed;
    WarnBadEnvOnce(env);
  }
  return fallback;
}

}  // namespace sbrl
