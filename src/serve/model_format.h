#ifndef SBRL_SERVE_MODEL_FORMAT_H_
#define SBRL_SERVE_MODEL_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/config.h"
#include "core/estimator.h"
#include "core/inference_net.h"
#include "core/ood_detector.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace serve {

/// Everything the scorer needs to know about a fitted estimator beyond
/// its raw tensors: the architecture and outcome scale its InferenceNet
/// is built from, plus provenance and the ISA pin.
struct ServingMeta {
  /// Architecture the weight names resolve against, and how head
  /// outputs map to potential outcomes.
  InferenceSpec spec;
  /// Training framework (recorded for provenance; scoring is
  /// framework-independent once the weights are fixed).
  FrameworkKind framework = FrameworkKind::kVanilla;
  /// MethodName(backbone, framework) at export time.
  std::string method_name;
  /// ISA choice the estimator predicts under; the scorer pins the same
  /// choice so serving forwards are bitwise identical to Predict.
  IsaChoice isa;
};

/// In-memory image of one serving model file: the decoded sections of
/// the "SBRLMODL" format, still architecture-agnostic (ServingModel
/// resolves names against the meta's network config).
struct ServingModelData {
  /// Decoded meta section.
  ServingMeta meta;
  /// Trainable parameters in collection order.
  std::vector<NamedMatrix> weights;
  /// True when a fitted OOD detector rode along in the file.
  bool has_ood = false;
  /// The exported detector state (meaningful only when has_ood).
  OodLevelDetector::State ood;
};

/// The on-disk format version SaveServingModel writes. Bump on any
/// layout change; LoadServingModel rejects other versions with
/// FailedPrecondition (no silent cross-version reinterpretation).
constexpr uint32_t kServingFormatVersion = 3;

/// Serializes `data` to `path` atomically via the shared sectioned
/// codec (common/serial.h): magic "SBRLMODL", u32 version, CRC32-
/// trailed sections, tmp+rename commit. Returns Internal on I/O
/// failure (fault site "serve/write" injects one).
Status SaveServingModel(const ServingModelData& data,
                        const std::string& path);

/// Reads and validates a model written by SaveServingModel. Returns
/// NotFound when `path` does not exist, InvalidArgument when it is not
/// a serving model (bad magic), FailedPrecondition on a format version
/// mismatch, and Internal on truncation, a CRC mismatch, an unknown
/// section tag, or missing required sections (fault site "serve/read"
/// injects a failure).
StatusOr<ServingModelData> LoadServingModel(const std::string& path);

/// Captures a fitted estimator (and optionally a fitted OOD detector)
/// as a ServingModelData: parameter values via Backbone::CollectParams
/// and the method/config/outcome metadata scoring needs. Returns
/// FailedPrecondition when `estimator` has not been fitted.
StatusOr<ServingModelData> ExportServingData(
    HteEstimator& estimator, const OodLevelDetector* ood_detector);

/// ExportServingData + SaveServingModel in one step.
Status ExportServingModel(HteEstimator& estimator,
                          const OodLevelDetector* ood_detector,
                          const std::string& path);

}  // namespace serve
}  // namespace sbrl

#endif  // SBRL_SERVE_MODEL_FORMAT_H_
