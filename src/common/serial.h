#ifndef SBRL_COMMON_SERIAL_H_
#define SBRL_COMMON_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace serial {

// ---------------------------------------------------------------------------
// Shared sectioned-file codec. Both on-disk formats in the repo (the
// training checkpoint, "SBRLCKPT", and the serving model, "SBRLMODL")
// share one byte discipline: an 8-byte magic, a u32 format version, a
// u32 section count, then sections of (u32 tag, u64 payload_size,
// payload, u32 crc32(payload)). Fixed-width little-endian scalars,
// length-prefixed strings, shape-prefixed raw f64 matrices; encoding
// goes through memcpy so the bytes are stable regardless of alignment.
// Files are only portable between same-endian hosts, which the CRC and
// shape checks turn into a load error rather than silent garbage.
// ---------------------------------------------------------------------------

/// CRC32 (polynomial 0xEDB88320, table-driven) over `size` bytes at
/// `data`. This is the checksum trailing every section payload.
uint32_t Crc32(const char* data, size_t size);

/// Appends the little-endian byte image of `v` to `out`.
template <typename T>
void AppendScalar(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

/// Smallest encodings of a string and of a matrix: the length or shape
/// prefix of an empty one (the per-item floors passed to ReadCount).
constexpr size_t kMinStringBytes = sizeof(uint64_t);
constexpr size_t kMinMatrixBytes = 2 * sizeof(uint64_t);

/// Appends a u64 length prefix followed by the raw bytes of `s`.
void AppendString(std::string* out, const std::string& s);

/// Appends u64 rows, u64 cols, then the row-major f64 payload of `m`.
void AppendMatrix(std::string* out, const Matrix& m);

/// Appends a u64 element count followed by the raw f64 payload of `v`.
void AppendDoubleVector(std::string* out, const std::vector<double>& v);

/// Bounds-checked sequential reader over an encoded byte range. Every
/// read returns false once the range is exhausted, which the callers
/// translate into a corruption Status — a truncated or bit-flipped
/// payload can fail shape checks before the CRC catches it, so both
/// layers report instead of reading out of bounds.
class ByteReader {
 public:
  /// Wraps the byte range [data, data + size); does not take ownership.
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  /// Reads sizeof(T) bytes into `out`; false when out of bytes.
  template <typename T>
  bool ReadScalar(T* out) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads a u64-length-prefixed string written by AppendString.
  bool ReadString(std::string* out);

  /// Reads a shape-prefixed matrix written by AppendMatrix. Rejects
  /// shapes beyond 2^30 per dimension (corrupted-size overflow guard).
  bool ReadMatrix(Matrix* out);

  /// Reads a u64 item count for a list whose items each encode to at
  /// least `min_item_bytes` bytes; false when that many items cannot
  /// fit in the bytes left. Decoders size containers from the count,
  /// so a forged count fails here instead of in an allocation.
  bool ReadCount(uint64_t* count, size_t min_item_bytes);

  /// Reads a count-prefixed f64 vector written by AppendDoubleVector.
  bool ReadDoubleVector(std::vector<double>* out);

  /// True once every byte of the range has been consumed — section
  /// decoders require this so trailing garbage is a decode error.
  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// One tagged section of a sectioned file: the tag identifies the
/// payload codec to the caller; the payload is an opaque byte string
/// at this layer (the CRC is computed/validated by Write/Read below).
struct Section {
  /// Caller-defined section tag (must be stable across versions).
  uint32_t tag = 0;
  /// Encoded section payload.
  std::string payload;
};

/// Identity of one sectioned on-disk format: the magic, the version
/// this build reads/writes, the noun used in error messages, and the
/// two fault-registry sites armed by the format's I/O paths.
struct FormatSpec {
  /// Exactly 8 magic bytes at file offset 0 (e.g. "SBRLCKPT").
  const char* magic;
  /// Format version written by Write and required by Read.
  uint32_t version;
  /// Error-message noun, e.g. "checkpoint" or "serving model".
  const char* what;
  /// Fault site checked before the write path (see common/fault.h).
  const char* write_fault;
  /// Fault site checked before the read path.
  const char* read_fault;
};

/// Serializes `sections` to `path` atomically under `spec`: the header
/// (magic, version, section count) and CRC-trailed sections are
/// encoded, written to a staging file unique to this commit
/// (`path + ".tmp.<pid>.<counter>"`, created exclusively in the same
/// directory), fsynced, and renamed over `path`; the directory is
/// fsynced after the rename. A crash mid-save can never leave a
/// truncated file at `path`, and concurrent commits to one path from
/// threads or processes always leave one writer's complete file.
/// Returns Internal on I/O failure (the spec's write_fault site
/// injects one).
Status WriteSectionedFile(const FormatSpec& spec,
                          const std::vector<Section>& sections,
                          const std::string& path);

/// Reads and validates a file written by WriteSectionedFile under the
/// same spec, returning its sections in file order. Returns NotFound
/// when `path` does not exist, InvalidArgument when the magic does not
/// match (not a `what`), FailedPrecondition on a version mismatch, and
/// Internal on truncation or a CRC mismatch (the spec's read_fault
/// site injects a failure). Section tags are NOT interpreted here —
/// unknown-tag and missing-required-section policy stays with the
/// caller, which owns the payload codecs.
StatusOr<std::vector<Section>> ReadSectionedFile(const FormatSpec& spec,
                                                 const std::string& path);

}  // namespace serial
}  // namespace sbrl

#endif  // SBRL_COMMON_SERIAL_H_
