#include "serve/model_format.h"

#include "common/serial.h"
#include "nn/parameter.h"

namespace sbrl {
namespace serve {

namespace {

using serial::AppendMatrix;
using serial::AppendScalar;
using serial::AppendString;
using serial::ByteReader;
using serial::kMinMatrixBytes;
using serial::kMinStringBytes;

constexpr serial::FormatSpec kServingFormat = {
    /*magic=*/"SBRLMODL",
    /*version=*/kServingFormatVersion,
    /*what=*/"serving model",
    /*write_fault=*/"serve/write",
    /*read_fault=*/"serve/read",
};

// Section tags. A section is (u32 tag, u64 payload_size, payload,
// u32 crc32(payload)); the OOD section is present only when a fitted
// detector was exported. Tag 5 held f32 copies of the weights in files
// from builds with an f32 serving tier; the loader skips it.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionWeights = 2;
constexpr uint32_t kSectionState = 3;
constexpr uint32_t kSectionOod = 4;
constexpr uint32_t kSectionLegacyNarrowedWeights = 5;

/// On-disk code of the hidden-layer activation. Every network trains
/// with ELU, code 0; codes 1-4 (relu, tanh, sigmoid, linear) belong to
/// retired hidden activations and, like any other value, fail to load.
constexpr uint32_t kEluActivationCode = 0;

std::string EncodeMeta(const ServingMeta& meta) {
  const InferenceSpec& spec = meta.spec;
  std::string out;
  AppendScalar<uint32_t>(&out, static_cast<uint32_t>(spec.backbone));
  AppendScalar<uint32_t>(&out, static_cast<uint32_t>(meta.framework));
  AppendString(&out, meta.method_name);
  AppendScalar<int64_t>(&out, spec.input_dim);
  AppendScalar<uint32_t>(&out, spec.binary_outcome ? 1 : 0);
  AppendScalar<double>(&out, spec.y_mean);
  AppendScalar<double>(&out, spec.y_std);
  AppendScalar<int64_t>(&out, spec.network.rep_layers);
  AppendScalar<int64_t>(&out, spec.network.rep_width);
  AppendScalar<int64_t>(&out, spec.network.head_layers);
  AppendScalar<int64_t>(&out, spec.network.head_width);
  AppendScalar<uint32_t>(&out, spec.network.batchnorm ? 1 : 0);
  AppendScalar<uint32_t>(&out, spec.network.rep_normalization ? 1 : 0);
  AppendScalar<uint32_t>(&out, kEluActivationCode);
  AppendScalar<int32_t>(&out, static_cast<int32_t>(meta.isa));
  AppendScalar<double>(&out, spec.bn_eps);
  return out;
}

bool DecodeMeta(ByteReader* reader, ServingMeta* meta) {
  InferenceSpec& spec = meta->spec;
  uint32_t backbone = 0, framework = 0, binary = 0, batchnorm = 0;
  uint32_t rep_norm = 0, activation = 0;
  int32_t isa = 0;
  const bool read =
      reader->ReadScalar(&backbone) && reader->ReadScalar(&framework) &&
      reader->ReadString(&meta->method_name) &&
      reader->ReadScalar(&spec.input_dim) && reader->ReadScalar(&binary) &&
      reader->ReadScalar(&spec.y_mean) && reader->ReadScalar(&spec.y_std) &&
      reader->ReadScalar(&spec.network.rep_layers) &&
      reader->ReadScalar(&spec.network.rep_width) &&
      reader->ReadScalar(&spec.network.head_layers) &&
      reader->ReadScalar(&spec.network.head_width) &&
      reader->ReadScalar(&batchnorm) && reader->ReadScalar(&rep_norm) &&
      reader->ReadScalar(&activation) && reader->ReadScalar(&isa) &&
      reader->ReadScalar(&spec.bn_eps) && reader->exhausted();
  if (!read) return false;
  // Range-check every enum before the cast: a CRC-valid file from a
  // newer build must fail decode, not smuggle an out-of-range value.
  if (backbone > static_cast<uint32_t>(BackboneKind::kDerCfr)) return false;
  if (framework > static_cast<uint32_t>(FrameworkKind::kSbrlHap)) return false;
  if (activation != kEluActivationCode) return false;
  if (isa < static_cast<int32_t>(IsaChoice::kAuto) ||
      isa > static_cast<int32_t>(IsaChoice::kAvx512)) {
    return false;
  }
  if (spec.input_dim < 1 || spec.bn_eps <= 0.0) return false;
  spec.backbone = static_cast<BackboneKind>(backbone);
  meta->framework = static_cast<FrameworkKind>(framework);
  spec.binary_outcome = binary != 0;
  spec.network.batchnorm = batchnorm != 0;
  spec.network.rep_normalization = rep_norm != 0;
  meta->isa = static_cast<IsaChoice>(isa);
  return true;
}

std::string EncodeNamedMatrices(const std::vector<NamedMatrix>& items) {
  std::string out;
  AppendScalar<uint64_t>(&out, items.size());
  for (const NamedMatrix& item : items) {
    AppendString(&out, item.name);
    AppendMatrix(&out, item.value);
  }
  return out;
}

bool DecodeNamedMatrices(ByteReader* reader, std::vector<NamedMatrix>* out) {
  uint64_t count = 0;
  if (!reader->ReadCount(&count, kMinStringBytes + kMinMatrixBytes)) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    NamedMatrix item;
    if (!reader->ReadString(&item.name) || !reader->ReadMatrix(&item.value)) {
      return false;
    }
    out->push_back(std::move(item));
  }
  return reader->exhausted();
}

std::string EncodeOod(const OodLevelDetector::State& state) {
  std::string out;
  AppendScalar<int64_t>(&out, state.options.calibration_rounds);
  AppendScalar<int64_t>(&out, state.options.projections);
  AppendScalar<int64_t>(&out, state.options.quadratic_features);
  AppendScalar<uint64_t>(&out, state.options.seed);
  AppendMatrix(&out, state.source);
  AppendScalar<uint64_t>(&out, state.quad_pairs.size());
  for (const auto& [i, j] : state.quad_pairs) {
    AppendScalar<int64_t>(&out, i);
    AppendScalar<int64_t>(&out, j);
  }
  AppendMatrix(&out, state.col_mean);
  AppendMatrix(&out, state.col_std);
  AppendScalar<double>(&out, state.null_q95);
  AppendScalar<double>(&out, state.null_scale);
  return out;
}

bool DecodeOod(ByteReader* reader, OodLevelDetector::State* state) {
  if (!reader->ReadScalar(&state->options.calibration_rounds) ||
      !reader->ReadScalar(&state->options.projections) ||
      !reader->ReadScalar(&state->options.quadratic_features) ||
      !reader->ReadScalar(&state->options.seed) ||
      !reader->ReadMatrix(&state->source)) {
    return false;
  }
  uint64_t pairs = 0;
  if (!reader->ReadCount(&pairs, 2 * sizeof(int64_t))) return false;
  state->quad_pairs.clear();
  state->quad_pairs.reserve(pairs);
  for (uint64_t q = 0; q < pairs; ++q) {
    int64_t i = 0, j = 0;
    if (!reader->ReadScalar(&i) || !reader->ReadScalar(&j)) return false;
    state->quad_pairs.emplace_back(i, j);
  }
  return reader->ReadMatrix(&state->col_mean) &&
         reader->ReadMatrix(&state->col_std) &&
         reader->ReadScalar(&state->null_q95) &&
         reader->ReadScalar(&state->null_scale) && reader->exhausted();
}

}  // namespace

Status SaveServingModel(const ServingModelData& data,
                        const std::string& path) {
  std::vector<serial::Section> sections;
  sections.push_back({kSectionMeta, EncodeMeta(data.meta)});
  sections.push_back({kSectionWeights, EncodeNamedMatrices(data.weights)});
  sections.push_back({kSectionState, EncodeNamedMatrices(data.state)});
  if (data.has_ood) {
    sections.push_back({kSectionOod, EncodeOod(data.ood)});
  }
  return serial::WriteSectionedFile(kServingFormat, sections, path);
}

StatusOr<ServingModelData> LoadServingModel(const std::string& path) {
  SBRL_ASSIGN_OR_RETURN(std::vector<serial::Section> sections,
                        serial::ReadSectionedFile(kServingFormat, path));

  ServingModelData data;
  bool seen_meta = false, seen_weights = false;
  for (const serial::Section& section : sections) {
    ByteReader reader(section.payload.data(), section.payload.size());
    bool decoded = true;
    switch (section.tag) {
      case kSectionMeta:
        decoded = DecodeMeta(&reader, &data.meta);
        seen_meta = decoded;
        break;
      case kSectionWeights:
        decoded = DecodeNamedMatrices(&reader, &data.weights);
        seen_weights = decoded;
        break;
      case kSectionState:
        decoded = DecodeNamedMatrices(&reader, &data.state);
        break;
      case kSectionOod:
        decoded = DecodeOod(&reader, &data.ood);
        data.has_ood = decoded;
        break;
      case kSectionLegacyNarrowedWeights:
        break;
      default:
        // Unknown sections are a forward-compat error at version parity:
        // same version must mean same sections.
        return Status::Internal("unknown serving model section tag " +
                                std::to_string(section.tag) + ": " + path);
    }
    if (!decoded) {
      return Status::Internal("corrupt serving model section " +
                              std::to_string(section.tag) + ": " + path);
    }
  }
  if (!seen_meta || !seen_weights) {
    return Status::Internal("serving model missing required sections: " +
                            path);
  }
  return data;
}

StatusOr<ServingModelData> ExportServingData(
    HteEstimator& estimator, const OodLevelDetector* ood_detector) {
  if (!estimator.fitted()) {
    return Status::FailedPrecondition(
        "cannot export an unfitted estimator as a serving model");
  }
  const EstimatorConfig& config = estimator.config();
  ServingModelData data;
  data.meta.spec = estimator.inference_spec();
  data.meta.framework = config.framework;
  data.meta.method_name = MethodName(config.backbone, config.framework);
  data.meta.isa = config.sbrl.isa;

  CaptureTensors(*estimator.fitted_backbone(), &data.weights, &data.state);
  if (ood_detector != nullptr) {
    data.has_ood = true;
    data.ood = ood_detector->ExportState();
  }
  return data;
}

Status ExportServingModel(HteEstimator& estimator,
                          const OodLevelDetector* ood_detector,
                          const std::string& path) {
  SBRL_ASSIGN_OR_RETURN(ServingModelData data,
                        ExportServingData(estimator, ood_detector));
  return SaveServingModel(data, path);
}

}  // namespace serve
}  // namespace sbrl
