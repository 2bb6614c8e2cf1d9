// Tests of the sharded deterministic training stack: block readers
// (data/streaming.h), the fixed-order tree reduction and streamed
// statistics (stats/sharded.h), and the out-of-core trainer
// (core/sharded_trainer.h). The central claims under test are the
// determinism contract — bitwise identical results for every worker
// count and for every storage mode feeding the same rows — and the
// equivalence of the streaming paths with their in-core references.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/sharded_trainer.h"
#include "data/csv.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "stats/rff.h"
#include "stats/sharded.h"
#include "tensor/linalg.h"

namespace sbrl {
namespace {

// ---------------------------------------------------------------------
// FixedOrderTreeReducer: the bracketing is a pure function of count.
// ---------------------------------------------------------------------

std::string ConcatCombine(std::string a, std::string b) {
  return "(" + a + b + ")";
}

std::string ReduceLetters(int n) {
  FixedOrderTreeReducer<std::string> reducer(ConcatCombine);
  for (int i = 0; i < n; ++i) {
    reducer.Push(std::string(1, static_cast<char>('a' + i)));
  }
  return reducer.Finish();
}

TEST(TreeReducerTest, BracketingIsBinaryCounter) {
  // Equal-size subtrees merge eagerly (binary counter); Finish folds
  // the leftover subtrees earlier-range-first. Left argument of every
  // combine is always the earlier shard range.
  EXPECT_EQ(ReduceLetters(1), "a");
  EXPECT_EQ(ReduceLetters(2), "(ab)");
  EXPECT_EQ(ReduceLetters(3), "((ab)c)");
  EXPECT_EQ(ReduceLetters(4), "((ab)(cd))");
  EXPECT_EQ(ReduceLetters(5), "(((ab)(cd))e)");
  EXPECT_EQ(ReduceLetters(6), "(((ab)(cd))(ef))");
  EXPECT_EQ(ReduceLetters(7), "(((ab)(cd))((ef)g))");
  EXPECT_EQ(ReduceLetters(8), "(((ab)(cd))((ef)(gh)))");
}

TEST(TreeReducerTest, FinishResetsForReuse) {
  FixedOrderTreeReducer<std::string> reducer(ConcatCombine);
  reducer.Push("a");
  reducer.Push("b");
  EXPECT_EQ(reducer.count(), 2);
  EXPECT_EQ(reducer.Finish(), "(ab)");
  EXPECT_EQ(reducer.count(), 0);
  reducer.Push("x");
  reducer.Push("y");
  reducer.Push("z");
  EXPECT_EQ(reducer.Finish(), "((xy)z)");
}

// ---------------------------------------------------------------------
// Block readers.
// ---------------------------------------------------------------------

// Per-process, so the suite's ctest variants can run concurrently.
std::string TempCsvPath(const std::string& name) {
  return "/tmp/sbrl_streaming_" + name + "_" + std::to_string(::getpid()) +
         ".csv";
}

void ExpectBitwiseEqual(const CausalDataset& a, const CausalDataset& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_TRUE(AllClose(a.x, b.x, 0.0));
  EXPECT_EQ(a.t, b.t);
  EXPECT_TRUE(AllClose(a.y, b.y, 0.0));
  EXPECT_TRUE(AllClose(a.mu0, b.mu0, 0.0));
  EXPECT_TRUE(AllClose(a.mu1, b.mu1, 0.0));
  EXPECT_EQ(a.binary_outcome, b.binary_outcome);
}

TEST(SyntheticBlockReaderTest, StreamIndependentOfReadGranularity) {
  const SyntheticModel model(SyntheticDims{}, /*seed=*/7);
  SyntheticBlockReader coarse(&model, /*total_rows=*/100, /*rho=*/2.5,
                              /*env_seed=*/11, /*chunk_rows=*/32);
  SyntheticBlockReader fine(&model, 100, 2.5, 11, 32);
  StatusOr<CausalDataset> all_coarse = ReadAllRows(coarse, /*block_rows=*/100);
  StatusOr<CausalDataset> all_fine = ReadAllRows(fine, /*block_rows=*/7);
  ASSERT_TRUE(all_coarse.ok());
  ASSERT_TRUE(all_fine.ok());
  EXPECT_EQ(all_coarse->n(), 100);
  ExpectBitwiseEqual(*all_coarse, *all_fine);
}

TEST(SyntheticBlockReaderTest, ResetReplaysIdenticalStream) {
  const SyntheticModel model(SyntheticDims{}, 7);
  SyntheticBlockReader reader(&model, 60, 2.5, 3, /*chunk_rows=*/16);
  StatusOr<CausalDataset> first = ReadAllRows(reader, 13);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(reader.Reset().ok());
  StatusOr<CausalDataset> second = ReadAllRows(reader, 41);
  ASSERT_TRUE(second.ok());
  ExpectBitwiseEqual(*first, *second);
}

TEST(SyntheticBlockReaderTest, UnbiasedSentinelAndEofBehavior) {
  const SyntheticModel model(SyntheticDims{}, 7);
  // rho == 1.0 streams unbiased units; dim/flag surface the model's.
  SyntheticBlockReader reader(&model, 25, /*rho=*/1.0, 5, 8);
  EXPECT_EQ(reader.dim(), SyntheticDims{}.total());
  EXPECT_TRUE(reader.binary_outcome());
  CausalDataset block;
  int64_t rows_total = 0;
  for (;;) {
    StatusOr<int64_t> rows = reader.NextBlock(10, &block);
    ASSERT_TRUE(rows.ok());
    if (*rows == 0) break;
    rows_total += *rows;
  }
  EXPECT_EQ(rows_total, 25);
  // EOF is sticky until Reset.
  StatusOr<int64_t> again = reader.NextBlock(10, &block);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
}

// ---------------------------------------------------------------------
// Prefetch: a hint that never changes the stream.
// ---------------------------------------------------------------------

// Drains `reader` block by block. With `prefetch_blocks` > 0 every
// group of that many NextBlock calls is announced with Prefetch first,
// the way ShardedReduce drives a wave.
std::vector<CausalDataset> DrainBlocks(DatasetBlockReader& reader,
                                       int64_t max_rows,
                                       int64_t prefetch_blocks = 0) {
  std::vector<CausalDataset> blocks;
  for (int64_t b = 0;; ++b) {
    if (prefetch_blocks > 0 && b % prefetch_blocks == 0) {
      reader.Prefetch(prefetch_blocks, max_rows);
    }
    CausalDataset block;
    StatusOr<int64_t> rows = reader.NextBlock(max_rows, &block);
    EXPECT_TRUE(rows.ok());
    if (!rows.ok() || *rows == 0) break;
    blocks.push_back(std::move(block));
  }
  return blocks;
}

void ExpectSameBlocks(const std::vector<CausalDataset>& a,
                      const std::vector<CausalDataset>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ExpectBitwiseEqual(a[i], b[i]);
}

TEST(SyntheticPrefetchTest, PrefetchedStreamBitwiseEqualsPlainStream) {
  const SyntheticModel model(SyntheticDims{}, 7);
  // 100 rows in chunks of 32: three full chunks and a 4-row tail.
  constexpr int64_t kRows = 100;
  constexpr int64_t kChunk = 32;
  for (const double rho : {1.0, 2.5}) {
    // Shards below, equal to and above the chunk size.
    for (const int64_t max_rows : {int64_t{7}, kChunk, int64_t{50}}) {
      SyntheticBlockReader plain(&model, kRows, rho, 11, kChunk);
      const std::vector<CausalDataset> want = DrainBlocks(plain, max_rows);
      for (const int64_t wave : {1, 3, 64}) {
        SyntheticBlockReader prefetched(&model, kRows, rho, 11, kChunk);
        SCOPED_TRACE("rho=" + std::to_string(rho) + " max_rows=" +
                     std::to_string(max_rows) +
                     " wave=" + std::to_string(wave));
        ExpectSameBlocks(DrainBlocks(prefetched, max_rows, wave), want);
      }
    }
  }
}

TEST(SyntheticPrefetchTest, HintsThatMisstateTheReadsLeaveStreamUnchanged) {
  const SyntheticModel model(SyntheticDims{}, 7);
  SyntheticBlockReader plain(&model, 100, 2.5, 3, 16);
  const std::vector<CausalDataset> want = DrainBlocks(plain, 5);
  SyntheticBlockReader hinted(&model, 100, 2.5, 3, 16);
  std::vector<CausalDataset> got;
  for (int64_t b = 0;; ++b) {
    // Announced shapes differ from the reads that follow; the
    // non-positive ones are ignored.
    hinted.Prefetch(b % 4, b % 2 == 0 ? 40 : 0);
    CausalDataset block;
    StatusOr<int64_t> rows = hinted.NextBlock(5, &block);
    ASSERT_TRUE(rows.ok());
    if (*rows == 0) break;
    got.push_back(std::move(block));
  }
  ExpectSameBlocks(got, want);
}

TEST(SyntheticPrefetchTest, ResetDropsPendingPrefetchedChunks) {
  const SyntheticModel model(SyntheticDims{}, 7);
  SyntheticBlockReader plain(&model, 90, 1.0, 5, 16);
  const std::vector<CausalDataset> want = DrainBlocks(plain, 16);
  SyntheticBlockReader reader(&model, 90, 1.0, 5, 16);
  reader.Prefetch(4, 16);
  CausalDataset block;
  ASSERT_TRUE(reader.NextBlock(16, &block).ok());
  ASSERT_TRUE(reader.Reset().ok());  // three prefetched chunks pending
  ExpectSameBlocks(DrainBlocks(reader, 16, /*prefetch_blocks=*/2), want);
  // And again from the end of the stream, with the tail prefetched.
  ASSERT_TRUE(reader.Reset().ok());
  ExpectSameBlocks(DrainBlocks(reader, 16, /*prefetch_blocks=*/6), want);
}

TEST(InMemoryBlockReaderTest, ServesExactRowRanges) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(37, /*env_seed=*/2);
  InMemoryBlockReader reader(&data);
  StatusOr<CausalDataset> drained = ReadAllRows(reader, 10);
  ASSERT_TRUE(drained.ok());
  ExpectBitwiseEqual(*drained, data);
  // Reset replays.
  ASSERT_TRUE(reader.Reset().ok());
  StatusOr<CausalDataset> replay = ReadAllRows(reader, 5);
  ASSERT_TRUE(replay.ok());
  ExpectBitwiseEqual(*replay, data);
}

TEST(CsvBlockReaderTest, BlocksConcatBitwiseEqualToInCoreLoad) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(50, 4);
  const std::string path = TempCsvPath("blocks");
  ASSERT_TRUE(SaveCausalDatasetCsv(data, path).ok());
  StatusOr<CausalDataset> incore = LoadCausalDatasetCsv(path);
  ASSERT_TRUE(incore.ok());

  StatusOr<std::unique_ptr<CsvBlockReader>> reader = CsvBlockReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->dim(), data.dim());
  StatusOr<CausalDataset> streamed = ReadAllRows(**reader, /*block_rows=*/7);
  ASSERT_TRUE(streamed.ok());
  ExpectBitwiseEqual(*streamed, *incore);
  // precision(17) writer: the round trip is bitwise, not just close.
  ExpectBitwiseEqual(*streamed, data);

  // EOF then Reset replays from the first data row.
  CausalDataset block;
  StatusOr<int64_t> eof = (*reader)->NextBlock(8, &block);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0);
  ASSERT_TRUE((*reader)->Reset().ok());
  StatusOr<CausalDataset> replay = ReadAllRows(**reader, 64);
  ASSERT_TRUE(replay.ok());
  ExpectBitwiseEqual(*replay, data);
  std::remove(path.c_str());
}

TEST(CsvBlockReaderTest, MalformedRowReportedMidStream) {
  const std::string path = TempCsvPath("bad");
  {
    std::ofstream out(path);
    out << "x0,t,y,mu0,mu1\n";
    out << "1.0,0,0.5,0.0,1.0\n";
    out << "1.0,1,oops,0.0,1.0\n";
  }
  StatusOr<std::unique_ptr<CsvBlockReader>> reader = CsvBlockReader::Open(path);
  ASSERT_TRUE(reader.ok());
  CausalDataset block;
  StatusOr<int64_t> first = (*reader)->NextBlock(1, &block);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1);
  StatusOr<int64_t> second = (*reader)->NextBlock(1, &block);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("line 3"), std::string::npos)
      << second.status().ToString();
  std::remove(path.c_str());
}

TEST(ReadAllRowsTest, EmptyStreamIsInvalidArgument) {
  const CausalDataset empty;
  InMemoryBlockReader reader(&empty);
  StatusOr<CausalDataset> drained = ReadAllRows(reader);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Streamed statistics.
// ---------------------------------------------------------------------

TEST(ShardedOptionsTest, EnvAndExplicitResolution) {
  unsetenv("SBRL_SHARD_ROWS");
  unsetenv("SBRL_SHARD_WORKERS");
  ShardedOptions defaults = ResolveShardedOptions(ShardedOptions{});
  EXPECT_EQ(defaults.shard_rows, 8192);
  EXPECT_GE(defaults.workers, 1);

  setenv("SBRL_SHARD_ROWS", "123", /*overwrite=*/1);
  setenv("SBRL_SHARD_WORKERS", "2", 1);
  ShardedOptions from_env = ResolveShardedOptions(ShardedOptions{});
  EXPECT_EQ(from_env.shard_rows, 123);
  EXPECT_EQ(from_env.workers, 2);

  // Explicit positive values win over the env.
  ShardedOptions explicit_opts;
  explicit_opts.shard_rows = 64;
  explicit_opts.workers = 3;
  ShardedOptions resolved = ResolveShardedOptions(explicit_opts);
  EXPECT_EQ(resolved.shard_rows, 64);
  EXPECT_EQ(resolved.workers, 3);

  // Malformed env falls back to the defaults, not to garbage.
  setenv("SBRL_SHARD_ROWS", "lots", 1);
  EXPECT_EQ(ResolveShardedOptions(ShardedOptions{}).shard_rows, 8192);
  unsetenv("SBRL_SHARD_ROWS");
  unsetenv("SBRL_SHARD_WORKERS");
}

TEST(ShardedStatsTest, ColumnMomentsMatchDirectSumsAndWorkerCount) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(123, 9);

  ShardedOptions opts;
  opts.shard_rows = 10;
  opts.workers = 1;
  InMemoryBlockReader reader(&data);
  StatusOr<ColumnMoments> w1 = ShardedColumnMoments(reader, opts);
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(w1->rows, 123);

  for (const int64_t workers : {2, 4}) {
    opts.workers = workers;
    ASSERT_TRUE(reader.Reset().ok());
    StatusOr<ColumnMoments> wn = ShardedColumnMoments(reader, opts);
    ASSERT_TRUE(wn.ok());
    EXPECT_EQ(wn->rows, w1->rows);
    EXPECT_TRUE(AllClose(wn->sum, w1->sum, 0.0)) << "workers=" << workers;
    EXPECT_TRUE(AllClose(wn->sum_sq, w1->sum_sq, 0.0));
  }

  // Tree-reduced sums agree with a naive serial accumulation up to
  // bracketing rounding.
  for (int64_t j = 0; j < data.dim(); ++j) {
    double sum = 0.0, sum_sq = 0.0;
    for (int64_t i = 0; i < data.n(); ++i) {
      sum += data.x(i, j);
      sum_sq += data.x(i, j) * data.x(i, j);
    }
    EXPECT_NEAR(w1->sum(0, j), sum, 1e-9);
    EXPECT_NEAR(w1->sum_sq(0, j), sum_sq, 1e-9);
  }
}

TEST(ShardedStatsTest, HsicRffWorkerInvariantAndMatchesInCore) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(200, 13);
  const int64_t col = 0;
  const int64_t k = 8;
  const uint64_t draw_seed = 99;

  ShardedOptions opts;
  opts.shard_rows = 16;
  opts.workers = 1;
  InMemoryBlockReader reader(&data);
  StatusOr<double> h1 = ShardedHsicRff(reader, col, kOutcomeColumn, k,
                                       draw_seed, opts);
  ASSERT_TRUE(h1.ok());
  for (const int64_t workers : {2, 4}) {
    opts.workers = workers;
    ASSERT_TRUE(reader.Reset().ok());
    StatusOr<double> hn = ShardedHsicRff(reader, col, kOutcomeColumn, k,
                                         draw_seed, opts);
    ASSERT_TRUE(hn.ok());
    EXPECT_EQ(*hn, *h1) << "workers=" << workers;  // bitwise
  }

  // In-core reference from the same counter-based projection draws.
  const RffProjection proj_a = SampleRffSlot(draw_seed, 1, k, 0);
  const RffProjection proj_b = SampleRffSlot(draw_seed, 1, k, 1);
  const Matrix phi = ApplyRffToColumn(proj_a, data.x, col);
  const Matrix psi = ApplyRff(proj_b, data.y);
  const double inv_n = 1.0 / static_cast<double>(data.n());
  double frob2 = 0.0;
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t q = 0; q < k; ++q) {
      double cross = 0.0, mean_a = 0.0, mean_b = 0.0;
      for (int64_t i = 0; i < data.n(); ++i) {
        cross += phi(i, p) * psi(i, q);
        mean_a += phi(i, p);
        mean_b += psi(i, q);
      }
      const double c = cross * inv_n - (mean_a * inv_n) * (mean_b * inv_n);
      frob2 += c * c;
    }
  }
  EXPECT_NEAR(*h1, frob2, 1e-12 + 1e-9 * frob2);

  // A different shard size changes the bracketing, not the statistic.
  opts.workers = 1;
  opts.shard_rows = 64;
  ASSERT_TRUE(reader.Reset().ok());
  StatusOr<double> coarse = ShardedHsicRff(reader, col, kOutcomeColumn, k,
                                           draw_seed, opts);
  ASSERT_TRUE(coarse.ok());
  EXPECT_NEAR(*coarse, *h1, 1e-12 + 1e-9 * *h1);
}

// ---------------------------------------------------------------------
// Sharded trainer.
// ---------------------------------------------------------------------

ShardedTrainerConfig SmallTrainerConfig() {
  ShardedTrainerConfig config;
  config.network.rep_layers = 1;
  config.network.rep_width = 8;
  config.network.head_layers = 1;
  config.network.head_width = 4;
  config.iterations = 3;
  config.seed = 21;
  config.sharding.shard_rows = 64;
  config.sharding.workers = 1;
  return config;
}

std::vector<Matrix> TrainParams(const ShardedTrainerConfig& config,
                                DatasetBlockReader& reader,
                                std::vector<double>* losses = nullptr) {
  ShardedTrainer trainer(config, reader.dim());
  ShardedTrainDiagnostics diag;
  const Status trained = trainer.Train(reader, &diag);
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  if (losses != nullptr) *losses = diag.train_loss;
  std::vector<Matrix> params;
  trainer.CollectParamValues(&params);
  return params;
}

void ExpectParamsBitwiseEqual(const std::vector<Matrix>& a,
                              const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(AllClose(a[i], b[i], 0.0)) << "parameter " << i;
  }
}

TEST(ShardedTrainerTest, WorkerCountBitwiseInvariance) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(300, 17);
  InMemoryBlockReader reader(&data);

  ShardedTrainerConfig config = SmallTrainerConfig();
  std::vector<double> loss1;
  const std::vector<Matrix> params1 = TrainParams(config, reader, &loss1);
  for (const int64_t workers : {2, 4}) {
    config.sharding.workers = workers;
    ASSERT_TRUE(reader.Reset().ok());
    std::vector<double> loss_n;
    const std::vector<Matrix> params_n = TrainParams(config, reader, &loss_n);
    ExpectParamsBitwiseEqual(params1, params_n);
    EXPECT_EQ(loss1, loss_n) << "workers=" << workers;
  }
}

TEST(ShardedTrainerTest, CsvStreamMatchesInCoreBitwise) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(150, 23);
  const std::string path = TempCsvPath("train");
  ASSERT_TRUE(SaveCausalDatasetCsv(data, path).ok());

  ShardedTrainerConfig config = SmallTrainerConfig();
  config.sharding.shard_rows = 32;
  config.sharding.workers = 2;

  StatusOr<std::unique_ptr<CsvBlockReader>> csv = CsvBlockReader::Open(path);
  ASSERT_TRUE(csv.ok());
  const std::vector<Matrix> from_csv = TrainParams(config, **csv);

  StatusOr<CausalDataset> loaded = LoadCausalDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  InMemoryBlockReader memory(&*loaded);
  const std::vector<Matrix> from_memory = TrainParams(config, memory);

  ExpectParamsBitwiseEqual(from_csv, from_memory);
  std::remove(path.c_str());
}

TEST(ShardedTrainerTest, SyntheticStreamTrainsWithoutMaterializing) {
  const SyntheticModel model(SyntheticDims{}, 7);
  SyntheticBlockReader stream(&model, 400, /*rho=*/2.5, /*env_seed=*/5,
                              /*chunk_rows=*/128);
  ShardedTrainerConfig config = SmallTrainerConfig();
  config.sharding.workers = 2;
  std::vector<double> losses;
  TrainParams(config, stream, &losses);
  ASSERT_EQ(losses.size(), 3u);
  for (const double loss : losses) EXPECT_TRUE(std::isfinite(loss));
  // Matches the same rows trained in-core, bitwise.
  ASSERT_TRUE(stream.Reset().ok());
  StatusOr<CausalDataset> incore = ReadAllRows(stream);
  ASSERT_TRUE(incore.ok());
  InMemoryBlockReader memory(&*incore);
  ASSERT_TRUE(stream.Reset().ok());
  ExpectParamsBitwiseEqual(TrainParams(config, stream),
                           TrainParams(config, memory));
}

TEST(ShardedTrainerTest, SingleArmTailShardHandled) {
  const SyntheticModel model(SyntheticDims{}, 7);
  CausalDataset data = model.SampleUnbiased(20, 31);
  // Force the 4-row tail shard (shard_rows=8) to hold treated rows
  // only: the control head receives no gradient there and must
  // contribute zeros, not crash or desync the reduction.
  for (size_t i = 16; i < 20; ++i) data.t[i] = 1;
  InMemoryBlockReader reader(&data);
  ShardedTrainerConfig config = SmallTrainerConfig();
  config.iterations = 2;
  config.sharding.shard_rows = 8;
  std::vector<double> losses;
  const std::vector<Matrix> params1 = TrainParams(config, reader, &losses);
  for (const double loss : losses) EXPECT_TRUE(std::isfinite(loss));
  // Worker invariance holds with the degenerate tail too.
  config.sharding.workers = 4;
  ASSERT_TRUE(reader.Reset().ok());
  ExpectParamsBitwiseEqual(params1, TrainParams(config, reader));
}

TEST(ShardedTrainerTest, EstimateAteAndPredictIteConsistent) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const CausalDataset data = model.SampleUnbiased(200, 3);
  InMemoryBlockReader reader(&data);
  ShardedTrainerConfig config = SmallTrainerConfig();

  ShardedTrainer trainer(config, data.dim());
  ASSERT_TRUE(trainer.Train(reader).ok());
  StatusOr<double> ate1 = trainer.EstimateAte(reader);
  ASSERT_TRUE(ate1.ok());

  // Streamed ATE equals the in-core mean ITE, and is worker-invariant.
  const Matrix ite = trainer.PredictIte(data.x);
  ASSERT_EQ(ite.rows(), data.n());
  double mean = 0.0;
  for (int64_t i = 0; i < ite.rows(); ++i) mean += ite(i, 0);
  mean /= static_cast<double>(ite.rows());
  EXPECT_NEAR(*ate1, mean, 1e-12);

  config.sharding.workers = 4;
  ShardedTrainer trainer4(config, data.dim());
  ASSERT_TRUE(reader.Reset().ok());
  ASSERT_TRUE(trainer4.Train(reader).ok());
  StatusOr<double> ate4 = trainer4.EstimateAte(reader);
  ASSERT_TRUE(ate4.ok());
  EXPECT_EQ(*ate1, *ate4);  // bitwise
}

// The literal stable logistic of the sharded ITE.
double StableSigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Tape oracle of ShardedTrainer::PredictIte: a fresh TARNet built from
// the same network config, loaded with the trainer's parameter values,
// recorded through Backbone::Forward(training=false), and mapped to the
// ITE with the same StableSigmoid difference (raw difference for
// continuous outcomes).
Matrix TapeOracleIte(const ShardedTrainerConfig& config,
                     const ShardedTrainer& trainer, const Matrix& x) {
  EstimatorConfig tarnet;
  tarnet.backbone = BackboneKind::kTarnet;
  tarnet.framework = FrameworkKind::kVanilla;
  tarnet.network = config.network;
  Rng rng(config.seed);
  std::unique_ptr<Backbone> backbone = CreateBackbone(tarnet, x.cols(), rng);
  std::vector<Param*> params;
  backbone->CollectParams(&params);
  std::vector<Matrix> values;
  trainer.CollectParamValues(&values);
  SBRL_CHECK_EQ(params.size(), values.size());
  for (size_t i = 0; i < params.size(); ++i) params[i]->value = values[i];

  Tape tape;
  ParamBinder binder(&tape);
  const std::vector<int> t0(static_cast<size_t>(x.rows()), 0);
  Var ones = tape.Constant(Matrix::Ones(x.rows(), 1));
  BackboneForward fwd =
      backbone->Forward(binder, x, t0, ones, /*training=*/false);
  Matrix ite(x.rows(), 1);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const double y0 = fwd.y0.value()(i, 0);
    const double y1 = fwd.y1.value()(i, 0);
    ite(i, 0) = config.binary_outcome ? StableSigmoid(y1) - StableSigmoid(y0)
                                      : y1 - y0;
  }
  return ite;
}

TEST(ShardedTrainerTest, PredictIteMatchesTapeOracleBitwise) {
  const SyntheticModel model(SyntheticDims{}, 7);
  for (const bool binary : {true, false}) {
    CausalDataset data = model.SampleUnbiased(200, 3);
    data.binary_outcome = binary;
    InMemoryBlockReader reader(&data);
    ShardedTrainerConfig config = SmallTrainerConfig();
    config.iterations = 2;
    config.binary_outcome = binary;
    ShardedTrainer trainer(config, data.dim());
    ASSERT_TRUE(trainer.Train(reader).ok());

    const Matrix ite = trainer.PredictIte(data.x);
    const Matrix want = TapeOracleIte(config, trainer, data.x);
    ASSERT_EQ(ite.rows(), want.rows());
    ASSERT_EQ(ite.cols(), 1);
    for (int64_t i = 0; i < want.rows(); ++i) {
      EXPECT_EQ(ite(i, 0), want(i, 0))
          << (binary ? "binary" : "continuous") << " row " << i;
    }
  }
}

TEST(ShardedTrainerTest, ContinuousOutcomeFamilySupported) {
  const SyntheticModel model(SyntheticDims{}, 7);
  CausalDataset data = model.SampleUnbiased(100, 19);
  data.binary_outcome = false;
  InMemoryBlockReader reader(&data);
  ShardedTrainerConfig config = SmallTrainerConfig();
  config.binary_outcome = false;
  config.iterations = 2;
  std::vector<double> losses;
  TrainParams(config, reader, &losses);
  for (const double loss : losses) EXPECT_TRUE(std::isfinite(loss));
}

TEST(ShardedTrainerTest, EmptyStreamReportsInvalidArgument) {
  const CausalDataset empty;
  // dim() of an empty dataset is 0, so give the trainer a dataset with
  // columns but no rows.
  CausalDataset no_rows;
  no_rows.x = Matrix(0, 4);
  no_rows.y = Matrix(0, 1);
  no_rows.mu0 = Matrix(0, 1);
  no_rows.mu1 = Matrix(0, 1);
  InMemoryBlockReader reader(&no_rows);
  ShardedTrainerConfig config = SmallTrainerConfig();
  ShardedTrainer trainer(config, 4);
  const Status trained = trainer.Train(reader);
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Sharded passes over a prefetching synthetic stream.
// ---------------------------------------------------------------------

// Moments, HSIC and a sharded fit over a synthetic stream, for one
// pool size and shard-worker count.
struct ShardedSyntheticResults {
  ColumnMoments moments;
  double hsic = 0.0;
  std::vector<Matrix> params;
};

ShardedSyntheticResults RunShardedSynthetic(const SyntheticModel& model,
                                            int pool_workers,
                                            int64_t shard_workers) {
  const int restore_workers = ThreadPool::GlobalParallelism() - 1;
  ThreadPool::ResetGlobalForTest(pool_workers);
  // 300 unbiased rows in chunks of 64 (a 44-row tail), read in 48-row
  // shards, so waves start and end inside chunks.
  SyntheticBlockReader reader(&model, 300, /*rho=*/1.0, 17,
                              /*chunk_rows=*/64);
  ShardedOptions opts;
  opts.shard_rows = 48;
  opts.workers = shard_workers;
  ShardedSyntheticResults out;
  StatusOr<ColumnMoments> moments = ShardedColumnMoments(reader, opts);
  EXPECT_TRUE(moments.ok());
  if (moments.ok()) out.moments = std::move(*moments);
  EXPECT_TRUE(reader.Reset().ok());
  StatusOr<double> hsic =
      ShardedHsicRff(reader, 0, kOutcomeColumn, 8, /*draw_seed=*/99, opts);
  EXPECT_TRUE(hsic.ok());
  if (hsic.ok()) out.hsic = *hsic;
  ShardedTrainerConfig config = SmallTrainerConfig();
  config.sharding = opts;
  out.params = TrainParams(config, reader);
  ThreadPool::ResetGlobalForTest(restore_workers);
  return out;
}

TEST(SyntheticPrefetchTest, ShardedPassesBitwiseInvariantAcrossPoolAndWorkers) {
  const SyntheticModel model(SyntheticDims{}, 7);
  const ShardedSyntheticResults want = RunShardedSynthetic(model, 0, 1);
  EXPECT_EQ(want.moments.rows, 300);
  for (const int pool_workers : {0, 1, 3}) {
    for (const int64_t shard_workers : {1, 2, 4}) {
      SCOPED_TRACE("pool workers=" + std::to_string(pool_workers) +
                   " shard workers=" + std::to_string(shard_workers));
      const ShardedSyntheticResults got =
          RunShardedSynthetic(model, pool_workers, shard_workers);
      EXPECT_EQ(got.moments.rows, want.moments.rows);
      EXPECT_TRUE(AllClose(got.moments.sum, want.moments.sum, 0.0));
      EXPECT_TRUE(AllClose(got.moments.sum_sq, want.moments.sum_sq, 0.0));
      EXPECT_EQ(got.hsic, want.hsic);  // bitwise
      ExpectParamsBitwiseEqual(got.params, want.params);
    }
  }
}

}  // namespace
}  // namespace sbrl
