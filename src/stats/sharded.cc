#include "stats/sharded.h"

#include <utility>

#include "common/env.h"
#include "stats/rff.h"
#include "tensor/linalg.h"

namespace sbrl {

ShardedOptions ResolveShardedOptions(const ShardedOptions& options) {
  ShardedOptions resolved = options;
  if (resolved.shard_rows <= 0) {
    resolved.shard_rows =
        ParseEnvInt64("SBRL_SHARD_ROWS", /*min_value=*/1, /*fallback=*/8192);
  }
  if (resolved.workers <= 0) {
    resolved.workers =
        ParseEnvInt64("SBRL_SHARD_WORKERS", /*min_value=*/1,
                      /*fallback=*/ThreadPool::GlobalParallelism());
  }
  return resolved;
}

ColumnMoments CombineColumnMoments(ColumnMoments a, ColumnMoments b) {
  SBRL_CHECK(a.sum.same_shape(b.sum));
  a.rows += b.rows;
  a.sum += b.sum;
  a.sum_sq += b.sum_sq;
  return a;
}

StatusOr<ColumnMoments> ShardedColumnMoments(DatasetBlockReader& reader,
                                             const ShardedOptions& options) {
  const int64_t d = reader.dim();
  const ShardedOptions opts = ResolveShardedOptions(options);
  return ShardedReduce<ColumnMoments>(
      reader, opts,
      [d](int64_t /*shard*/, int64_t /*slot*/, const CausalDataset& block) {
        ColumnMoments m;
        m.rows = block.n();
        m.sum = Matrix(1, d);
        m.sum_sq = Matrix(1, d);
        for (int64_t i = 0; i < block.n(); ++i) {
          const double* row = block.x.data() + i * d;
          for (int64_t j = 0; j < d; ++j) {
            m.sum(0, j) += row[j];
            m.sum_sq(0, j) += row[j] * row[j];
          }
        }
        return m;
      },
      &CombineColumnMoments);
}

HsicRffMoments CombineHsicRffMoments(HsicRffMoments a, HsicRffMoments b) {
  SBRL_CHECK(a.cross.same_shape(b.cross));
  a.rows += b.rows;
  a.sum_a += b.sum_a;
  a.sum_b += b.sum_b;
  a.cross += b.cross;
  return a;
}

double FinalizeHsicRff(const HsicRffMoments& moments) {
  SBRL_CHECK_GT(moments.rows, 0);
  const int64_t k = moments.cross.cols();
  const double inv_n = 1.0 / static_cast<double>(moments.rows);
  double frob2 = 0.0;
  for (int64_t i = 0; i < k; ++i) {
    const double mean_a = moments.sum_a(0, i) * inv_n;
    for (int64_t j = 0; j < k; ++j) {
      const double c =
          moments.cross(i, j) * inv_n - mean_a * moments.sum_b(0, j) * inv_n;
      frob2 += c * c;
    }
  }
  return frob2;
}

namespace {

/// RFF feature map of the selected column (covariate index or
/// kOutcomeColumn) of one block: (rows x k).
Matrix BlockFeatures(const CausalDataset& block, int64_t col,
                     const RffProjection& proj) {
  if (col == kOutcomeColumn) {
    return ApplyRff(proj, block.y);
  }
  return ApplyRffToColumn(proj, block.x, col);
}

}  // namespace

StatusOr<double> ShardedHsicRff(DatasetBlockReader& reader, int64_t col_a,
                                int64_t col_b, int64_t num_features,
                                uint64_t draw_seed,
                                const ShardedOptions& options) {
  SBRL_CHECK_GT(num_features, 0);
  SBRL_CHECK(col_a == kOutcomeColumn ||
             (col_a >= 0 && col_a < reader.dim()));
  SBRL_CHECK(col_b == kOutcomeColumn ||
             (col_b >= 0 && col_b < reader.dim()));
  // Counter-based slot draws: both projections are pure functions of
  // (draw_seed, slot), never of the stream, so every shard sees the
  // same features no matter when or where it is processed.
  const RffProjection proj_a = SampleRffSlot(draw_seed, 1, num_features, 0);
  const RffProjection proj_b = SampleRffSlot(draw_seed, 1, num_features, 1);
  const ShardedOptions opts = ResolveShardedOptions(options);
  int64_t rows = 0;
  SBRL_ASSIGN_OR_RETURN(
      const HsicRffMoments reduced,
      ShardedReduce<HsicRffMoments>(
          reader, opts,
          [&](int64_t /*shard*/, int64_t /*slot*/,
              const CausalDataset& block) {
            const Matrix phi = BlockFeatures(block, col_a, proj_a);
            const Matrix psi = BlockFeatures(block, col_b, proj_b);
            HsicRffMoments m;
            m.rows = block.n();
            m.sum_a = ColSum(phi);
            m.sum_b = ColSum(psi);
            m.cross = MatmulTransA(phi, psi);
            return m;
          },
          &CombineHsicRffMoments, &rows));
  return FinalizeHsicRff(reduced);
}

}  // namespace sbrl
