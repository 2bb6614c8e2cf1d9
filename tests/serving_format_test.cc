// Serving model format lockdown: round-trip fidelity of every section
// (meta, weights, fitted OOD detector), atomicity of the
// temp-file-plus-rename commit, and the full corruption taxonomy
// shared with the checkpoint format — bad magic, version skew (a
// previous or a future version), truncation, bit flips, forged item
// counts, unknown section tags, injected I/O faults at the serve/write
// and serve/read sites — each surfacing as the documented typed
// Status.

#include "serve/model_format.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/serial.h"
#include "core/ood_detector.h"
#include "tensor/random.h"

namespace sbrl {
namespace serve {
namespace {

// Per-process, so the suite's ctest variants (and its sanitized twin)
// can run concurrently.
std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

ServingModelData MakeData() {
  Rng rng(99);
  ServingModelData data;
  data.meta.spec.backbone = BackboneKind::kCfr;
  data.meta.framework = FrameworkKind::kSbrlHap;
  data.meta.method_name =
      MethodName(data.meta.spec.backbone, data.meta.framework);
  data.meta.spec.input_dim = 5;
  data.meta.spec.binary_outcome = false;
  data.meta.spec.y_mean = 1.75;
  data.meta.spec.y_std = 0.5;
  data.meta.spec.network.rep_layers = 2;
  data.meta.spec.network.rep_width = 3;
  data.meta.spec.network.head_layers = 1;
  data.meta.spec.network.head_width = 4;
  data.meta.isa = Isa::kBaseline;
  data.weights.push_back({"rep.l0.W", rng.Randn(5, 3)});
  data.weights.push_back({"rep.l0.b", rng.Randn(1, 3)});
  data.weights.push_back({"rep.l1.W", rng.Randn(3, 3)});
  data.weights.push_back({"rep.l1.b", rng.Randn(1, 3)});
  OodLevelDetector::Options options;
  options.calibration_rounds = 4;
  options.projections = 4;
  options.quadratic_features = 6;
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(60, 5), options);
  SBRL_CHECK(detector.ok()) << detector.status().ToString();
  data.has_ood = true;
  data.ood = detector->ExportState();
  return data;
}

// The serving model's on-disk identity, for writing sections directly.
constexpr serial::FormatSpec kSpec = {"SBRLMODL", kServingFormatVersion,
                                      "serving model", "serve/write",
                                      "serve/read"};

void ExpectMatrixEq(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ServingFormatTest, RoundTripPreservesEverySection) {
  const std::string path = TestPath("roundtrip.model");
  const ServingModelData data = MakeData();
  ASSERT_TRUE(SaveServingModel(data, path).ok());
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ServingModelData& got = loaded.value();
  EXPECT_EQ(got.meta.spec.backbone, data.meta.spec.backbone);
  EXPECT_EQ(got.meta.framework, data.meta.framework);
  EXPECT_EQ(got.meta.method_name, data.meta.method_name);
  EXPECT_EQ(got.meta.spec.input_dim, data.meta.spec.input_dim);
  EXPECT_EQ(got.meta.spec.binary_outcome, data.meta.spec.binary_outcome);
  EXPECT_EQ(got.meta.spec.y_mean, data.meta.spec.y_mean);
  EXPECT_EQ(got.meta.spec.y_std, data.meta.spec.y_std);
  const NetworkConfig& got_net = got.meta.spec.network;
  const NetworkConfig& want_net = data.meta.spec.network;
  EXPECT_EQ(got_net.rep_layers, want_net.rep_layers);
  EXPECT_EQ(got_net.rep_width, want_net.rep_width);
  EXPECT_EQ(got_net.head_layers, want_net.head_layers);
  EXPECT_EQ(got_net.head_width, want_net.head_width);
  EXPECT_EQ(got.meta.isa, data.meta.isa);
  ASSERT_EQ(got.weights.size(), data.weights.size());
  for (size_t i = 0; i < data.weights.size(); ++i) {
    EXPECT_EQ(got.weights[i].name, data.weights[i].name);
    ExpectMatrixEq(got.weights[i].value, data.weights[i].value);
  }
  ASSERT_TRUE(got.has_ood);
  EXPECT_EQ(got.ood.options.calibration_rounds,
            data.ood.options.calibration_rounds);
  EXPECT_EQ(got.ood.options.projections, data.ood.options.projections);
  EXPECT_EQ(got.ood.options.quadratic_features,
            data.ood.options.quadratic_features);
  EXPECT_EQ(got.ood.options.seed, data.ood.options.seed);
  ExpectMatrixEq(got.ood.source, data.ood.source);
  EXPECT_EQ(got.ood.quad_pairs, data.ood.quad_pairs);
  ExpectMatrixEq(got.ood.col_mean, data.ood.col_mean);
  ExpectMatrixEq(got.ood.col_std, data.ood.col_std);
  EXPECT_EQ(got.ood.null_q95, data.ood.null_q95);
  EXPECT_EQ(got.ood.null_scale, data.ood.null_scale);
  std::remove(path.c_str());
}

TEST(ServingFormatTest, OodSectionIsOptional) {
  const std::string path = TestPath("no_ood.model");
  ServingModelData data = MakeData();
  data.has_ood = false;
  data.ood = OodLevelDetector::State();
  ASSERT_TRUE(SaveServingModel(data, path).ok());
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->has_ood);
  std::remove(path.c_str());
}

TEST(ServingFormatTest, SaveOverwritesAtomically) {
  // A second save replaces the file wholesale and leaves no .tmp
  // droppings behind.
  const std::string path = TestPath("overwrite.model");
  ServingModelData data = MakeData();
  ASSERT_TRUE(SaveServingModel(data, path).ok());
  data.meta.spec.input_dim = 7;
  ASSERT_TRUE(SaveServingModel(data, path).ok());
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->meta.spec.input_dim, 7);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "stale temp file left behind";
  std::remove(path.c_str());
}

TEST(ServingFormatTest, MissingFileIsNotFound) {
  StatusOr<ServingModelData> loaded =
      LoadServingModel(TestPath("does_not_exist.model"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ServingFormatTest, BadMagicIsInvalidArgument) {
  const std::string path = TestPath("not_a_model.model");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a serving model file";
  }
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ServingFormatTest, CheckpointMagicIsInvalidArgument) {
  // A valid file of the OTHER sectioned format must be rejected at the
  // magic check — the two formats share a codec, not an identity.
  const std::string path = TestPath("wrong_format.model");
  ASSERT_TRUE(SaveServingModel(MakeData(), path).ok());
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekp(0);
  file.write("SBRLCKPT", 8);
  file.close();
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// A file of the previous format version is rejected, not misparsed; so
// is a future one.
TEST(ServingFormatTest, VersionSkewIsFailedPrecondition) {
  for (const uint32_t version :
       {kServingFormatVersion - 1, kServingFormatVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path = TestPath("version_skew.model");
    ASSERT_TRUE(SaveServingModel(MakeData(), path).ok());
    // The u32 version sits immediately after the 8-byte magic.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    file.close();
    StatusOr<ServingModelData> loaded = LoadServingModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    std::remove(path.c_str());
  }
}

TEST(ServingFormatTest, TruncationIsInternal) {
  const std::string full_path = TestPath("truncate_src.model");
  ASSERT_TRUE(SaveServingModel(MakeData(), full_path).ok());
  std::ifstream in(full_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::remove(full_path.c_str());
  ASSERT_GT(bytes.size(), 64u);
  const std::string path = TestPath("truncated.model");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST(ServingFormatTest, BitFlipFailsCrc) {
  const std::string path = TestPath("bitflip.model");
  ASSERT_TRUE(SaveServingModel(MakeData(), path).ok());
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  // Flip one bit in the middle of the weights payload.
  file.seekg(size / 2);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST(ServingFormatTest, InjectedWriteFaultFailsSaveAndPreservesOldFile) {
  const std::string path = TestPath("write_fault.model");
  ServingModelData data = MakeData();
  ASSERT_TRUE(SaveServingModel(data, path).ok());
  data.meta.spec.input_dim = 1000;
  ArmFault("serve/write", /*hit=*/0);
  const Status failed = SaveServingModel(data, path);
  DisarmFaults();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_EQ(FaultFireCount("serve/write"), 0)
      << "DisarmFaults must clear counters";
  // The previous model is untouched — the fault fired before the temp
  // file was committed.
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->meta.spec.input_dim, 5);
  std::remove(path.c_str());
}

TEST(ServingFormatTest, InjectedReadFaultFailsLoad) {
  const std::string path = TestPath("read_fault.model");
  ASSERT_TRUE(SaveServingModel(MakeData(), path).ok());
  ArmFault("serve/read", /*hit=*/0);
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  DisarmFaults();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

// A CRC-valid section whose item count claims far more tensors than
// its payload holds is a corrupt section, not an allocation request.
TEST(ServingFormatTest, ForgedItemCountIsInternal) {
  std::string forged;
  serial::AppendScalar<uint64_t>(&forged, uint64_t{1} << 61);
  const std::string path = TestPath("forged_count.model");
  ASSERT_TRUE(serial::WriteSectionedFile(kSpec, {{2u, forged}}, path).ok());
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

// At version parity a section tag the format does not define is an
// error, not something to skip.
TEST(ServingFormatTest, UnknownSectionTagIsInternal) {
  const std::string path = TestPath("unknown_tag.model");
  ASSERT_TRUE(SaveServingModel(MakeData(), path).ok());
  StatusOr<std::vector<serial::Section>> sections =
      serial::ReadSectionedFile(kSpec, path);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  sections->push_back({5, "payload"});
  ASSERT_TRUE(serial::WriteSectionedFile(kSpec, *sections, path).ok());
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace sbrl
