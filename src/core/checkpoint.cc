#include "core/checkpoint.h"

#include "common/serial.h"

namespace sbrl {

namespace {

// Byte-level encoding is delegated to the shared sectioned-file codec
// in common/serial.h (magic + u32 version + CRC32-trailed sections,
// atomic tmp+rename commit). This file owns only the checkpoint's
// section tags and per-section payload codecs.

using serial::AppendDoubleVector;
using serial::AppendMatrix;
using serial::AppendScalar;
using serial::AppendString;
using serial::ByteReader;
using serial::kMinMatrixBytes;
using serial::kMinStringBytes;

constexpr serial::FormatSpec kCheckpointFormat = {
    /*magic=*/"SBRLCKPT",
    /*version=*/kCheckpointFormatVersion,
    /*what=*/"checkpoint",
    /*write_fault=*/"checkpoint/write",
    /*read_fault=*/"checkpoint/read",
};

// Section tags. A section is (u32 tag, u64 payload_size, payload,
// u32 crc32(payload)).
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionParams = 2;
constexpr uint32_t kSectionBestSnapshot = 3;

std::string EncodeMeta(const TrainingCheckpoint& ckpt) {
  std::string out;
  AppendScalar<int64_t>(&out, ckpt.next_iteration);
  AppendScalar<int64_t>(&out, ckpt.opt_decay_steps);
  AppendScalar<int64_t>(&out, ckpt.opt_plain_steps);
  AppendScalar<int64_t>(&out, ckpt.opt_w_steps);
  AppendScalar<double>(&out, ckpt.best_valid);
  AppendScalar<int64_t>(&out, ckpt.bad_evals);
  AppendScalar<int64_t>(&out, ckpt.best_iteration);
  AppendScalar<int64_t>(&out, ckpt.first_bad_iteration);
  AppendScalar<int64_t>(&out, ckpt.rollbacks);
  AppendScalar<double>(&out, ckpt.lr_scale);
  AppendScalar<double>(&out, ckpt.loss_anchor);
  AppendString(&out, ckpt.rng_state);
  AppendDoubleVector(&out, ckpt.train_loss);
  AppendDoubleVector(&out, ckpt.valid_loss);
  AppendDoubleVector(&out, ckpt.weight_loss);
  return out;
}

bool DecodeMeta(ByteReader* reader, TrainingCheckpoint* ckpt) {
  return reader->ReadScalar(&ckpt->next_iteration) &&
         reader->ReadScalar(&ckpt->opt_decay_steps) &&
         reader->ReadScalar(&ckpt->opt_plain_steps) &&
         reader->ReadScalar(&ckpt->opt_w_steps) &&
         reader->ReadScalar(&ckpt->best_valid) &&
         reader->ReadScalar(&ckpt->bad_evals) &&
         reader->ReadScalar(&ckpt->best_iteration) &&
         reader->ReadScalar(&ckpt->first_bad_iteration) &&
         reader->ReadScalar(&ckpt->rollbacks) &&
         reader->ReadScalar(&ckpt->lr_scale) &&
         reader->ReadScalar(&ckpt->loss_anchor) &&
         reader->ReadString(&ckpt->rng_state) &&
         reader->ReadDoubleVector(&ckpt->train_loss) &&
         reader->ReadDoubleVector(&ckpt->valid_loss) &&
         reader->ReadDoubleVector(&ckpt->weight_loss) && reader->exhausted();
}

std::string EncodeParams(const std::vector<ParamCheckpoint>& params) {
  std::string out;
  AppendScalar<uint64_t>(&out, params.size());
  for (const ParamCheckpoint& p : params) {
    AppendString(&out, p.name);
    AppendMatrix(&out, p.value);
    AppendMatrix(&out, p.adam_m);
    AppendMatrix(&out, p.adam_v);
  }
  return out;
}

bool DecodeParams(ByteReader* reader, std::vector<ParamCheckpoint>* out) {
  uint64_t count = 0;
  if (!reader->ReadCount(&count, kMinStringBytes + 3 * kMinMatrixBytes)) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ParamCheckpoint p;
    if (!reader->ReadString(&p.name) || !reader->ReadMatrix(&p.value) ||
        !reader->ReadMatrix(&p.adam_m) || !reader->ReadMatrix(&p.adam_v)) {
      return false;
    }
    out->push_back(std::move(p));
  }
  return reader->exhausted();
}

std::string EncodeBestSnapshot(const std::vector<Matrix>& snapshot) {
  std::string out;
  AppendScalar<uint64_t>(&out, snapshot.size());
  for (const Matrix& m : snapshot) AppendMatrix(&out, m);
  return out;
}

bool DecodeBestSnapshot(ByteReader* reader, std::vector<Matrix>* out) {
  uint64_t count = 0;
  if (!reader->ReadCount(&count, kMinMatrixBytes)) return false;
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Matrix m;
    if (!reader->ReadMatrix(&m)) return false;
    out->push_back(std::move(m));
  }
  return reader->exhausted();
}

}  // namespace

Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                      const std::string& path) {
  std::vector<serial::Section> sections;
  sections.push_back({kSectionMeta, EncodeMeta(ckpt)});
  sections.push_back({kSectionParams, EncodeParams(ckpt.params)});
  sections.push_back({kSectionBestSnapshot,
                      EncodeBestSnapshot(ckpt.best_snapshot)});
  return serial::WriteSectionedFile(kCheckpointFormat, sections, path);
}

StatusOr<TrainingCheckpoint> LoadCheckpoint(const std::string& path) {
  SBRL_ASSIGN_OR_RETURN(std::vector<serial::Section> sections,
                        serial::ReadSectionedFile(kCheckpointFormat, path));

  TrainingCheckpoint ckpt;
  bool seen_meta = false, seen_params = false;
  for (const serial::Section& section : sections) {
    ByteReader reader(section.payload.data(), section.payload.size());
    bool decoded = true;
    switch (section.tag) {
      case kSectionMeta:
        decoded = DecodeMeta(&reader, &ckpt);
        seen_meta = decoded;
        break;
      case kSectionParams:
        decoded = DecodeParams(&reader, &ckpt.params);
        seen_params = decoded;
        break;
      case kSectionBestSnapshot:
        decoded = DecodeBestSnapshot(&reader, &ckpt.best_snapshot);
        break;
      default:
        // Unknown sections are a forward-compat error at version parity:
        // same version must mean same sections.
        return Status::Internal("unknown checkpoint section tag " +
                                std::to_string(section.tag) + ": " + path);
    }
    if (!decoded) {
      return Status::Internal("corrupt checkpoint section " +
                              std::to_string(section.tag) + ": " + path);
    }
  }
  if (!seen_meta || !seen_params) {
    return Status::Internal("checkpoint missing required sections: " + path);
  }
  return ckpt;
}

}  // namespace sbrl
