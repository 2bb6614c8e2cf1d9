// The serving model format stores the hidden-layer activation as a
// fixed on-disk code. Every network trains with ELU, code 0; the codes
// 1-4 once named relu, tanh, sigmoid and linear hidden layers. These
// tests pin ELU's code byte for byte and check that every other code
// fails to load.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "common/serial.h"
#include "serve/model_format.h"

namespace sbrl {
namespace serve {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

ServingModelData MakeData() {
  ServingModelData data;
  data.meta.method_name = "codes";
  data.meta.spec.input_dim = 2;
  return data;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The meta section comes first: after the 16-byte file header (magic,
// version, section count) and its 12-byte section header (tag, size),
// the activation code sits 84 bytes plus the method name into the
// payload (see EncodeMeta).
constexpr size_t kMetaPayload = 16 + 12;

size_t ActivationOffset(const ServingModelData& data) {
  return kMetaPayload + 84 + data.meta.method_name.size();
}

uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

TEST(ActivationCodesTest, EluCodeIsFixed) {
  const std::string path = TestPath("codes.model");
  const ServingModelData data = MakeData();
  ASSERT_TRUE(SaveServingModel(data, path).ok());
  EXPECT_EQ(ReadU32(ReadBytes(path), ActivationOffset(data)), 0u);
  StatusOr<ServingModelData> loaded = LoadServingModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

// Rewrites the activation code of the model at `path` and re-seals the
// meta section's CRC, so only the decoder's range check can reject it.
void PatchActivationCode(const std::string& path,
                         const ServingModelData& data, uint32_t code) {
  std::string bytes = ReadBytes(path);
  std::memcpy(&bytes[ActivationOffset(data)], &code, sizeof(code));
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes.data() + kMetaPayload - 8,
              sizeof(payload_size));
  const uint32_t crc =
      serial::Crc32(bytes.data() + kMetaPayload, payload_size);
  std::memcpy(&bytes[kMetaPayload + payload_size], &crc, sizeof(crc));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ActivationCodesTest, RetiredAndUnknownCodesFailToLoad) {
  const ServingModelData data = MakeData();
  const std::string path = TestPath("unknown_code.model");
  for (uint32_t code : {1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(SaveServingModel(data, path).ok());
    PatchActivationCode(path, data, code);
    EXPECT_FALSE(LoadServingModel(path).ok()) << "code " << code;
  }
  // The re-seal itself is sound: patching code 0 back in still loads.
  PatchActivationCode(path, data, 0);
  EXPECT_TRUE(LoadServingModel(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace sbrl
