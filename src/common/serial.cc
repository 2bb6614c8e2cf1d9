#include "common/serial.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>

#include "common/fault.h"

namespace sbrl {
namespace serial {

uint32_t Crc32(const char* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendString(std::string* out, const std::string& s) {
  AppendScalar<uint64_t>(out, s.size());
  out->append(s);
}

void AppendMatrix(std::string* out, const Matrix& m) {
  AppendScalar<uint64_t>(out, static_cast<uint64_t>(m.rows()));
  AppendScalar<uint64_t>(out, static_cast<uint64_t>(m.cols()));
  out->append(reinterpret_cast<const char*>(m.data()),
              static_cast<size_t>(m.size()) * sizeof(double));
}

void AppendDoubleVector(std::string* out, const std::vector<double>& v) {
  AppendScalar<uint64_t>(out, v.size());
  out->append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(double));
}

bool ByteReader::ReadString(std::string* out) {
  uint64_t size = 0;
  if (!ReadScalar(&size) || size_ - pos_ < size) return false;
  out->assign(data_ + pos_, size);
  pos_ += size;
  return true;
}

bool ByteReader::ReadMatrix(Matrix* out) {
  uint64_t rows = 0, cols = 0;
  if (!ReadScalar(&rows) || !ReadScalar(&cols)) return false;
  // Guard the size multiplication against overflow from corrupted
  // shapes: no legitimate serialized tensor approaches 2^30 per dim.
  if (rows > (1ull << 30) || cols > (1ull << 30)) return false;
  const uint64_t bytes = rows * cols * sizeof(double);
  if (size_ - pos_ < bytes) return false;
  *out = Matrix(static_cast<int64_t>(rows), static_cast<int64_t>(cols));
  std::memcpy(out->data(), data_ + pos_, bytes);
  pos_ += bytes;
  return true;
}

bool ByteReader::ReadCount(uint64_t* count, size_t min_item_bytes) {
  return ReadScalar(count) && *count <= (size_ - pos_) / min_item_bytes;
}

bool ByteReader::ReadDoubleVector(std::vector<double>* out) {
  uint64_t size = 0;
  if (!ReadScalar(&size) || size > (1ull << 40) ||
      size_ - pos_ < size * sizeof(double)) {
    return false;
  }
  out->resize(size);
  std::memcpy(out->data(), data_ + pos_, size * sizeof(double));
  pos_ += size * sizeof(double);
  return true;
}

namespace {

constexpr size_t kMagicSize = 8;

void AppendSection(std::string* out, const Section& section) {
  AppendScalar<uint32_t>(out, section.tag);
  AppendScalar<uint64_t>(out, section.payload.size());
  out->append(section.payload);
  AppendScalar<uint32_t>(out,
                         Crc32(section.payload.data(), section.payload.size()));
}

// Writes all of `bytes` to `fd`, retrying short and interrupted writes.
bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

// fsyncs the directory holding `path`. Filesystems that cannot sync a
// directory (EINVAL) count as synced: there is nothing more to do.
bool SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  return synced;
}

}  // namespace

Status WriteSectionedFile(const FormatSpec& spec,
                          const std::vector<Section>& sections,
                          const std::string& path) {
  std::string encoded;
  encoded.append(spec.magic, kMagicSize);
  AppendScalar<uint32_t>(&encoded, spec.version);
  AppendScalar<uint32_t>(&encoded, static_cast<uint32_t>(sections.size()));
  for (const Section& section : sections) AppendSection(&encoded, section);

  if (FaultPoint(spec.write_fault)) {
    return Status::Internal(std::string("injected fault at ") +
                            spec.write_fault + ": " + path);
  }

  // Atomic commit: stage in a file no other writer can name (pid +
  // per-process counter, created O_EXCL), fsync it, rename it over
  // `path`, then fsync the directory so the rename itself is durable.
  // Concurrent writers to one path (threads or processes) each rename
  // a complete file, so `path` always holds one writer's bytes; a crash
  // leaves at most a stale staging file next to an intact previous
  // file.
  static std::atomic<uint64_t> commit_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(commit_counter.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal("cannot open for writing: " + tmp);
  const bool written = WriteAll(fd, encoded) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written) {
    ::unlink(tmp.c_str());
    return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  if (!SyncParentDirectory(path)) {
    return Status::Internal("directory sync failed after commit: " + path);
  }
  return Status::OK();
}

StatusOr<std::vector<Section>> ReadSectionedFile(const FormatSpec& spec,
                                                 const std::string& path) {
  const std::string what = spec.what;
  if (FaultPoint(spec.read_fault)) {
    return Status::Internal(std::string("injected fault at ") +
                            spec.read_fault + ": " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("read failed: " + path);
  }

  if (bytes.size() < kMagicSize ||
      std::memcmp(bytes.data(), spec.magic, kMagicSize) != 0) {
    return Status::InvalidArgument("not a " + what + " (bad magic): " + path);
  }
  size_t pos = kMagicSize;
  auto read_u32 = [&](uint32_t* out) {
    if (bytes.size() - pos < sizeof(uint32_t)) return false;
    std::memcpy(out, bytes.data() + pos, sizeof(uint32_t));
    pos += sizeof(uint32_t);
    return true;
  };
  auto read_u64 = [&](uint64_t* out) {
    if (bytes.size() - pos < sizeof(uint64_t)) return false;
    std::memcpy(out, bytes.data() + pos, sizeof(uint64_t));
    pos += sizeof(uint64_t);
    return true;
  };

  uint32_t version = 0, section_count = 0;
  if (!read_u32(&version)) {
    return Status::Internal("truncated " + what + " header: " + path);
  }
  if (version != spec.version) {
    return Status::FailedPrecondition(
        what + " format version " + std::to_string(version) +
        " (this build reads " + std::to_string(spec.version) + "): " + path);
  }
  if (!read_u32(&section_count)) {
    return Status::Internal("truncated " + what + " header: " + path);
  }

  // Each section takes at least its tag, size and CRC; a forged count
  // beyond what the file can hold is truncation, not an allocation.
  constexpr size_t kMinSectionBytes = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  if (section_count > (bytes.size() - pos) / kMinSectionBytes) {
    return Status::Internal("truncated " + what + " section: " + path);
  }
  std::vector<Section> sections;
  sections.reserve(section_count);
  for (uint32_t s = 0; s < section_count; ++s) {
    Section section;
    uint32_t crc = 0;
    uint64_t payload_size = 0;
    if (!read_u32(&section.tag) || !read_u64(&payload_size) ||
        bytes.size() - pos < payload_size) {
      return Status::Internal("truncated " + what + " section: " + path);
    }
    const char* payload = bytes.data() + pos;
    pos += payload_size;
    if (!read_u32(&crc)) {
      return Status::Internal("truncated " + what + " section: " + path);
    }
    if (Crc32(payload, payload_size) != crc) {
      return Status::Internal(what + " CRC mismatch in section " +
                              std::to_string(section.tag) + ": " + path);
    }
    section.payload.assign(payload, payload_size);
    sections.push_back(std::move(section));
  }
  return sections;
}

}  // namespace serial
}  // namespace sbrl
