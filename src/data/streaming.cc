#include "data/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"

#if defined(__cpp_lib_to_chars)
#include <charconv>
#else
#include <cstdlib>
#endif

namespace sbrl {

namespace {

// Locale-independent strict double parse of one CSV field (already
// whitespace-stripped). Returns false on empty/garbage/trailing junk.
// Overflowing magnitudes parse to +-inf and are caught by the caller's
// finiteness check.
bool ParseCsvDouble(const std::string& field, double* out) {
  if (field.empty()) return false;
  const char* begin = field.c_str();
  const char* end = begin + field.size();
  if (*begin == '+') ++begin;  // from_chars/strtod asymmetry: allow "+1.5"
#if defined(__cpp_lib_to_chars)
  const std::from_chars_result result = std::from_chars(begin, end, *out);
  if (result.ptr != end) return false;
  if (result.ec == std::errc::result_out_of_range) {
    // Out-of-range magnitudes become +-inf / +-0 per strtod convention
    // so the finiteness gate downstream reports them; from_chars leaves
    // *out untouched on this error.
    *out = field[0] == '-' ? -HUGE_VAL : HUGE_VAL;
    return true;
  }
  return result.ec == std::errc();
#else
  // Pre-C++17-library fallback: strtod is locale-sensitive for the
  // decimal separator, so this branch mis-parses under comma-decimal
  // LC_NUMERIC locales. Every supported toolchain (GCC >= 11,
  // Clang >= 14 with libstdc++) takes the from_chars branch above.
  char* parse_end = nullptr;
  *out = std::strtod(begin, &parse_end);
  return parse_end == end;
#endif
}

// Appends rows [begin, begin + count) of `src` to flat column staging.
void AppendRowRange(const CausalDataset& src, int64_t begin, int64_t count,
                    AlignedVector<double>* x_flat, std::vector<int>* t,
                    AlignedVector<double>* y, AlignedVector<double>* mu0,
                    AlignedVector<double>* mu1) {
  const int64_t d = src.dim();
  const double* x_rows = src.x.data() + begin * d;
  x_flat->insert(x_flat->end(), x_rows, x_rows + count * d);
  t->insert(t->end(), src.t.begin() + static_cast<size_t>(begin),
            src.t.begin() + static_cast<size_t>(begin + count));
  y->insert(y->end(), src.y.data() + begin, src.y.data() + begin + count);
  mu0->insert(mu0->end(), src.mu0.data() + begin,
              src.mu0.data() + begin + count);
  mu1->insert(mu1->end(), src.mu1.data() + begin,
              src.mu1.data() + begin + count);
}

// Builds `*block` from flat column staging (consuming it).
void BuildBlock(int64_t rows, int64_t d, bool binary_outcome,
                AlignedVector<double>&& x_flat, std::vector<int>&& t,
                AlignedVector<double>&& y, AlignedVector<double>&& mu0,
                AlignedVector<double>&& mu1, CausalDataset* block) {
  block->x = Matrix::FromFlat(rows, d, std::move(x_flat));
  block->t = std::move(t);
  block->y = Matrix::FromFlat(rows, 1, std::move(y));
  block->mu0 = Matrix::FromFlat(rows, 1, std::move(mu0));
  block->mu1 = Matrix::FromFlat(rows, 1, std::move(mu1));
  block->binary_outcome = binary_outcome;
}

// Copies rows [begin, begin + count) of `src` into `*block`, reusing
// the block's backing storage when shapes allow (ResetZero recycling).
void CopyRowRange(const CausalDataset& src, int64_t begin, int64_t count,
                  CausalDataset* block) {
  const int64_t d = src.dim();
  block->x.ResetZero(count, d);
  std::memcpy(block->x.data(), src.x.data() + begin * d,
              static_cast<size_t>(count * d) * sizeof(double));
  block->y.ResetZero(count, 1);
  std::memcpy(block->y.data(), src.y.data() + begin,
              static_cast<size_t>(count) * sizeof(double));
  block->mu0.ResetZero(count, 1);
  std::memcpy(block->mu0.data(), src.mu0.data() + begin,
              static_cast<size_t>(count) * sizeof(double));
  block->mu1.ResetZero(count, 1);
  std::memcpy(block->mu1.data(), src.mu1.data() + begin,
              static_cast<size_t>(count) * sizeof(double));
  block->t.assign(src.t.begin() + static_cast<size_t>(begin),
                  src.t.begin() + static_cast<size_t>(begin + count));
  block->binary_outcome = src.binary_outcome;
}

}  // namespace

// ---------------------------------------------------------------------------
// CsvBlockReader
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<CsvBlockReader>> CsvBlockReader::Open(
    const std::string& path) {
  std::unique_ptr<CsvBlockReader> reader(new CsvBlockReader());
  reader->path_ = path;
  reader->in_.open(path);
  if (!reader->in_.is_open()) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string line;
  if (!std::getline(reader->in_, line)) {
    return Status::InvalidArgument("empty file: " + path);
  }
  ++reader->line_no_;
  if (StartsWith(line, "#")) {
    if (line.find("binary_outcome=0") != std::string::npos) {
      reader->binary_outcome_ = false;
    }
    if (!std::getline(reader->in_, line)) {
      return Status::InvalidArgument("missing header: " + path);
    }
    ++reader->line_no_;
  }
  const std::vector<std::string> header = Split(line, ',');
  if (header.size() < 5) {
    return Status::InvalidArgument("header needs x*,t,y,mu0,mu1: " + path);
  }
  reader->dim_ = static_cast<int64_t>(header.size()) - 4;
  reader->header_lines_ = reader->line_no_;
  reader->data_start_ = reader->in_.tellg();
  return reader;
}

StatusOr<int64_t> CsvBlockReader::NextBlock(int64_t max_rows,
                                            CausalDataset* block) {
  SBRL_CHECK_GE(max_rows, 1);
  SBRL_CHECK(block != nullptr);
  const int64_t d = dim_;
  x_flat_.clear();
  y_.clear();
  mu0_.clear();
  mu1_.clear();
  t_.clear();
  int64_t rows = 0;
  while (rows < max_rows && std::getline(in_, line_)) {
    ++line_no_;
    if (StripWhitespace(line_).empty()) continue;
    const std::vector<std::string> fields = Split(line_, ',');
    if (static_cast<int64_t>(fields.size()) != d + 4) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no_) + ": expected " +
          std::to_string(d + 4) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (int64_t j = 0; j < d + 4; ++j) {
      const std::string stripped =
          StripWhitespace(fields[static_cast<size_t>(j)]);
      double v = 0.0;
      if (!ParseCsvDouble(stripped, &v)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no_) + ": bad number '" +
            fields[static_cast<size_t>(j)] + "'");
      }
      // NaN/Inf parse fine but poison every downstream statistic;
      // reject them at the boundary with the line number.
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no_) + ": non-finite value '" +
            fields[static_cast<size_t>(j)] + "'");
      }
      if (j < d) {
        x_flat_.push_back(v);
      } else if (j == d) {
        if (v != 0.0 && v != 1.0) {
          return Status::InvalidArgument("treatment must be 0/1, got " +
                                         std::to_string(v));
        }
        t_.push_back(static_cast<int>(v));
      } else if (j == d + 1) {
        y_.push_back(v);
      } else if (j == d + 2) {
        mu0_.push_back(v);
      } else {
        mu1_.push_back(v);
      }
    }
    ++rows;
  }
  if (rows == 0) return static_cast<int64_t>(0);
  // Moving the staging out hands its storage to the block; the next
  // call re-grows fresh vectors (one allocation per column per block,
  // amortized over max_rows rows — the per-row vector<vector> churn
  // this loader replaced is gone either way).
  BuildBlock(rows, d, binary_outcome_, std::move(x_flat_), std::move(t_),
             std::move(y_), std::move(mu0_), std::move(mu1_), block);
  return rows;
}

Status CsvBlockReader::Reset() {
  in_.clear();
  in_.seekg(data_start_);
  if (!in_.good()) return Status::Internal("seek failed: " + path_);
  line_no_ = header_lines_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// InMemoryBlockReader
// ---------------------------------------------------------------------------

InMemoryBlockReader::InMemoryBlockReader(const CausalDataset* data)
    : data_(data) {
  SBRL_CHECK(data != nullptr);
}

StatusOr<int64_t> InMemoryBlockReader::NextBlock(int64_t max_rows,
                                                 CausalDataset* block) {
  SBRL_CHECK_GE(max_rows, 1);
  SBRL_CHECK(block != nullptr);
  const int64_t remaining = data_->n() - cursor_;
  if (remaining <= 0) return static_cast<int64_t>(0);
  const int64_t take = std::min(max_rows, remaining);
  CopyRowRange(*data_, cursor_, take, block);
  cursor_ += take;
  return take;
}

Status InMemoryBlockReader::Reset() {
  cursor_ = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SyntheticBlockReader
// ---------------------------------------------------------------------------

SyntheticBlockReader::SyntheticBlockReader(const SyntheticModel* model,
                                           int64_t total_rows, double rho,
                                           uint64_t env_seed,
                                           int64_t chunk_rows)
    : model_(model), total_rows_(total_rows), rho_(rho), env_seed_(env_seed),
      chunk_rows_(chunk_rows) {
  SBRL_CHECK(model != nullptr);
  SBRL_CHECK_GT(total_rows, 0);
  SBRL_CHECK_GE(chunk_rows, 1);
}

int64_t SyntheticBlockReader::dim() const { return model_->dims().total(); }

StatusOr<int64_t> SyntheticBlockReader::NextBlock(int64_t max_rows,
                                                  CausalDataset* block) {
  SBRL_CHECK_GE(max_rows, 1);
  SBRL_CHECK(block != nullptr);
  if (buffer_cursor_ >= buffer_.n()) {
    // Without a prefetched chunk this generates the next one inline.
    if (prefetched_.empty()) Prefetch(1, max_rows);
    if (prefetched_.empty()) return static_cast<int64_t>(0);
    buffer_ = std::move(prefetched_.front());
    prefetched_.pop_front();
    buffer_cursor_ = 0;
  }
  const int64_t take =
      std::min(max_rows, buffer_.n() - buffer_cursor_);
  CopyRowRange(buffer_, buffer_cursor_, take, block);
  buffer_cursor_ += take;
  return take;
}

Status SyntheticBlockReader::Reset() {
  buffer_ = CausalDataset();
  buffer_cursor_ = 0;
  prefetched_.clear();
  generated_rows_ = 0;
  chunk_index_ = 0;
  return Status::OK();
}

void SyntheticBlockReader::Prefetch(int64_t blocks, int64_t max_rows) {
  if (blocks < 1 || max_rows < 1) return;
  // Replay the next `blocks` reads over the chunk layout (one NextBlock
  // never spans two chunks) and list the chunks they reach that are
  // neither buffered nor prefetched yet.
  std::vector<int64_t> sizes;
  int64_t left = buffer_.n() - buffer_cursor_;
  size_t queued = 0;
  int64_t planned_rows = generated_rows_;
  for (int64_t b = 0; b < blocks; ++b) {
    if (left == 0) {
      if (queued < prefetched_.size()) {
        left = prefetched_[queued++].n();
      } else if (planned_rows < total_rows_) {
        left = std::min(chunk_rows_, total_rows_ - planned_rows);
        planned_rows += left;
        sizes.push_back(left);
      } else {
        break;
      }
    }
    left -= std::min(max_rows, left);
  }
  const int64_t count = static_cast<int64_t>(sizes.size());
  if (count == 0) return;
  std::vector<CausalDataset> chunks(sizes.size());
  const int64_t first = chunk_index_;
  ParallelFor(0, count, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      chunks[static_cast<size_t>(c)] = model_->SampleEnvironmentChunk(
          sizes[static_cast<size_t>(c)], rho_, env_seed_, first + c);
    }
  });
  for (CausalDataset& chunk : chunks) prefetched_.push_back(std::move(chunk));
  chunk_index_ += count;
  generated_rows_ = planned_rows;
}

// ---------------------------------------------------------------------------
// ReadAllRows
// ---------------------------------------------------------------------------

StatusOr<CausalDataset> ReadAllRows(DatasetBlockReader& reader,
                                    int64_t block_rows) {
  SBRL_CHECK_GE(block_rows, 1);
  const int64_t d = reader.dim();
  AlignedVector<double> x_flat;
  std::vector<int> t;
  AlignedVector<double> y, mu0, mu1;
  CausalDataset block;
  int64_t total = 0;
  for (;;) {
    SBRL_ASSIGN_OR_RETURN(const int64_t rows,
                          reader.NextBlock(block_rows, &block));
    if (rows == 0) break;
    AppendRowRange(block, 0, rows, &x_flat, &t, &y, &mu0, &mu1);
    total += rows;
  }
  if (total == 0) return Status::InvalidArgument("no data rows");
  CausalDataset out;
  BuildBlock(total, d, reader.binary_outcome(), std::move(x_flat),
             std::move(t), std::move(y), std::move(mu0), std::move(mu1),
             &out);
  return out;
}

}  // namespace sbrl
