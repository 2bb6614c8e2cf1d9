#ifndef SBRL_DATA_STREAMING_H_
#define SBRL_DATA_STREAMING_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/statusor.h"
#include "data/causal_dataset.h"
#include "data/synthetic.h"

namespace sbrl {

/// Sequential block access to a `CausalDataset`-shaped row stream
/// without materializing the full (n x d) sample. This is the loading
/// seam of the sharded training path (core/sharded_trainer.h): the
/// trainer pulls fixed-size row shards, computes per-shard statistics,
/// and tree-reduces them in a fixed order.
///
/// Determinism contract: the concatenated row stream of a reader is a
/// pure function of its construction arguments — it does not depend on
/// the `max_rows` values callers pass, on how reads interleave with
/// other work, or on the thread that calls. `Reset()` replays the
/// identical stream. Readers are NOT thread-safe; one thread drives
/// `NextBlock`, and parallelism happens over the returned blocks.
class DatasetBlockReader {
 public:
  virtual ~DatasetBlockReader() = default;

  /// Covariate dimension of every block.
  virtual int64_t dim() const = 0;

  /// Outcome family flag copied into every block.
  virtual bool binary_outcome() const = 0;

  /// Overwrites `*block` with the next at-most-`max_rows` rows of the
  /// stream and returns how many were produced; 0 means end of stream.
  /// `max_rows` must be >= 1. Blocks are plain row ranges: no
  /// per-block validation of treatment-arm balance is implied (a tail
  /// block may hold a single arm).
  virtual StatusOr<int64_t> NextBlock(int64_t max_rows,
                                      CausalDataset* block) = 0;

  /// Rewinds to row 0 so the next `NextBlock` replays the identical
  /// stream (the sharded trainer calls this once per pass).
  virtual Status Reset() = 0;

  /// Hint that the next `blocks` calls will be `NextBlock(max_rows, ..)`
  /// — ShardedReduce issues it before filling each wave. A reader may
  /// use it to produce those rows ahead of time (the synthetic reader
  /// generates the covering chunks in parallel), but must hold at most
  /// that much data resident for it and must leave the stream exactly
  /// as it would be without the call. Non-positive arguments are
  /// ignored. The default does nothing.
  virtual void Prefetch(int64_t /*blocks*/, int64_t /*max_rows*/) {}
};

/// Streams a CSV written by `SaveCausalDatasetCsv` (or matching its
/// layout) in row blocks, holding one block plus one line in memory at
/// a time. Parsing is locale-independent (`std::from_chars`) and
/// rejects malformed, non-finite, and overflow fields with the
/// 1-based line number. `LoadCausalDatasetCsv` is this reader plus
/// `ReadAllRows` — the streaming path and the in-core path share one
/// parser by construction.
class CsvBlockReader : public DatasetBlockReader {
 public:
  /// Opens `path`, consumes the optional `# binary_outcome=` prologue
  /// and the header line, and validates the column count.
  static StatusOr<std::unique_ptr<CsvBlockReader>> Open(
      const std::string& path);

  int64_t dim() const override { return dim_; }
  bool binary_outcome() const override { return binary_outcome_; }
  StatusOr<int64_t> NextBlock(int64_t max_rows, CausalDataset* block) override;
  Status Reset() override;

 private:
  CsvBlockReader() = default;

  std::string path_;
  std::ifstream in_;
  int64_t dim_ = 0;
  bool binary_outcome_ = true;
  /// Stream offset of the first data row (Reset seeks back here).
  std::streampos data_start_;
  /// 1-based number of the last consumed line (prologue/header count).
  int64_t line_no_ = 0;
  int64_t header_lines_ = 0;

  /// Per-call staging, kept as members so their capacity is reused
  /// across blocks (no per-row or per-block allocation churn in the
  /// steady state). Aligned vectors because Matrix::FromFlat adopts
  /// them as matrix backing storage.
  std::string line_;
  AlignedVector<double> x_flat_;
  AlignedVector<double> y_, mu0_, mu1_;
  std::vector<int> t_;
};

/// Serves contiguous row ranges of an in-core dataset (not owned; must
/// outlive the reader). This is the bridge that lets one code path
/// serve both storage modes — the streaming-vs-in-core equality tests
/// run the sharded trainer over this reader and over `CsvBlockReader`
/// and require bitwise-identical fits.
class InMemoryBlockReader : public DatasetBlockReader {
 public:
  /// Wraps `data`; the caller keeps ownership.
  explicit InMemoryBlockReader(const CausalDataset* data);

  int64_t dim() const override { return data_->dim(); }
  bool binary_outcome() const override { return data_->binary_outcome; }
  StatusOr<int64_t> NextBlock(int64_t max_rows, CausalDataset* block) override;
  Status Reset() override;

 private:
  const CausalDataset* data_;
  int64_t cursor_ = 0;
};

/// Generates a synthetic environment of `total_rows` units on the fly,
/// one generation chunk at a time, via
/// `SyntheticModel::SampleEnvironmentChunk` — memory stays O(chunk),
/// which is what scales the generator to 10^6+ rows. Each chunk's Rng
/// is seeded purely by (env_seed, chunk_index), so the stream content
/// depends only on (total_rows, rho, env_seed, chunk_rows), never on
/// read granularity or on prefetching. `rho == 1.0` streams unbiased
/// units; any `|rho| > 1` applies the paper's biased selection per
/// chunk.
class SyntheticBlockReader : public DatasetBlockReader {
 public:
  /// Wraps `model` (not owned; must outlive the reader). `chunk_rows`
  /// is the generation granularity — changing it changes the sampled
  /// units, so it is part of the stream identity.
  SyntheticBlockReader(const SyntheticModel* model, int64_t total_rows,
                       double rho, uint64_t env_seed,
                       int64_t chunk_rows = 8192);

  int64_t dim() const override;
  bool binary_outcome() const override { return true; }
  StatusOr<int64_t> NextBlock(int64_t max_rows, CausalDataset* block) override;
  Status Reset() override;

  /// Generates every chunk the next `blocks` NextBlock(max_rows) calls
  /// will read from and that is not yet resident, in one ParallelFor
  /// over the global pool (serial inline when nested in a pool task).
  /// Each chunk is a pure function of (env_seed, chunk_index), so the
  /// stream is unchanged; at most those chunks are held.
  void Prefetch(int64_t blocks, int64_t max_rows) override;

 private:
  const SyntheticModel* model_;
  int64_t total_rows_;
  double rho_;
  uint64_t env_seed_;
  int64_t chunk_rows_;

  CausalDataset buffer_;
  int64_t buffer_cursor_ = 0;
  /// Chunks generated by Prefetch, in stream order, not yet moved into
  /// `buffer_`.
  std::deque<CausalDataset> prefetched_;
  /// Rows of every chunk generated so far (prefetched ones included);
  /// `chunk_index_` is the index of the next chunk to generate.
  int64_t generated_rows_ = 0;
  int64_t chunk_index_ = 0;
};

/// Drains `reader` (from its current position) into one in-core
/// dataset, pulling `block_rows` rows at a time and accumulating into
/// flat buffers that the result matrices adopt without a final copy.
/// Returns InvalidArgument when the stream holds no rows.
StatusOr<CausalDataset> ReadAllRows(DatasetBlockReader& reader,
                                    int64_t block_rows = 65536);

}  // namespace sbrl

#endif  // SBRL_DATA_STREAMING_H_
