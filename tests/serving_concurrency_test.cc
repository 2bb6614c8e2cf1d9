// Micro-batcher determinism and lifecycle lockdown: concurrent client
// threads scoring through one shared MicroBatcher must get results
// BITWISE identical to scoring each row alone, no matter how many
// clients run or where the coalescing boundaries fall; shutdown must
// drain every queued request. Runs in the tsan suite, so the model is
// handcrafted (deterministic Rng weights) instead of trained.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"
#include "serve/serving_model.h"
#include "tensor/random.h"

namespace sbrl {
namespace serve {
namespace {

constexpr int64_t kDim = 4;
constexpr int64_t kRepWidth = 6;
constexpr int64_t kHeadWidth = 5;

// A small CFR-shaped model: two representation layers and one hidden
// layer per head, each an affine + ELU, then the linear output units.
ServingModelData MakeModelData() {
  Rng rng(7);
  ServingModelData data;
  data.meta.spec.backbone = BackboneKind::kCfr;
  data.meta.framework = FrameworkKind::kVanilla;
  data.meta.method_name = "handcrafted";
  data.meta.spec.input_dim = kDim;
  data.meta.spec.binary_outcome = true;
  data.meta.spec.network.rep_layers = 2;
  data.meta.spec.network.rep_width = kRepWidth;
  data.meta.spec.network.head_layers = 1;
  data.meta.spec.network.head_width = kHeadWidth;

  auto add_layer = [&](const std::string& prefix, int64_t index, int64_t in,
                       int64_t out) {
    const std::string dense = prefix + ".l" + std::to_string(index);
    data.weights.push_back({dense + ".W", rng.Randn(in, out, 0.0, 0.5)});
    data.weights.push_back({dense + ".b", rng.Randn(1, out, 0.0, 0.1)});
  };
  add_layer("rep", 0, kDim, kRepWidth);
  add_layer("rep", 1, kRepWidth, kRepWidth);
  add_layer("heads.h0", 0, kRepWidth, kHeadWidth);
  add_layer("heads.h1", 0, kRepWidth, kHeadWidth);
  data.weights.push_back({"heads.h0.out.W", rng.Randn(kHeadWidth, 1)});
  data.weights.push_back({"heads.h0.out.b", rng.Randn(1, 1)});
  data.weights.push_back({"heads.h1.out.W", rng.Randn(kHeadWidth, 1)});
  data.weights.push_back({"heads.h1.out.b", rng.Randn(1, 1)});
  return data;
}

ServingModel MakeModel() {
  StatusOr<ServingModel> model = ServingModel::FromData(MakeModelData());
  SBRL_CHECK(model.ok()) << model.status().ToString();
  return std::move(model.value());
}

TEST(ServingConcurrencyTest, ResultsBitwiseIndependentOfThreadsAndBatching) {
  const ServingModel model = MakeModel();
  Rng rng(8);
  const Matrix queries = rng.Randn(24, kDim);
  const std::vector<ServingModel::RowScore> reference =
      model.ScoreRows(queries);

  for (const int64_t threads : {1, 2, 4}) {
    for (const int64_t max_batch : {1, 3, 8}) {
      for (const int64_t max_wait_us : {0, 1000}) {
        MicroBatcher::Options options;
        options.max_batch = max_batch;
        options.max_wait_us = max_wait_us;
        MicroBatcher batcher(&model, options);

        std::vector<ServingModel::RowScore> got(
            static_cast<size_t>(queries.rows()));
        std::vector<std::thread> clients;
        for (int64_t c = 0; c < threads; ++c) {
          clients.emplace_back([&, c] {
            // Client c scores every threads-th row.
            std::vector<double> row(kDim);
            for (int64_t i = c; i < queries.rows(); i += threads) {
              for (int64_t d = 0; d < kDim; ++d) row[d] = queries(i, d);
              got[static_cast<size_t>(i)] = batcher.ScoreRow(row);
            }
          });
        }
        for (std::thread& client : clients) client.join();
        batcher.Shutdown();

        EXPECT_EQ(batcher.rows_scored(), queries.rows());
        EXPECT_GE(batcher.batches_dispatched(),
                  (queries.rows() + max_batch - 1) / max_batch);
        EXPECT_LE(batcher.batches_dispatched(), queries.rows());
        for (int64_t i = 0; i < queries.rows(); ++i) {
          const ServingModel::RowScore& want =
              reference[static_cast<size_t>(i)];
          const ServingModel::RowScore& have = got[static_cast<size_t>(i)];
          EXPECT_EQ(have.y0, want.y0)
              << "threads=" << threads << " max_batch=" << max_batch
              << " wait=" << max_wait_us << " row=" << i;
          EXPECT_EQ(have.y1, want.y1);
          EXPECT_EQ(have.ite, want.ite);
        }
      }
    }
  }
}

TEST(ServingConcurrencyTest, ShutdownDrainsQueuedRequests) {
  const ServingModel model = MakeModel();
  Rng rng(9);
  const Matrix queries = rng.Randn(8, kDim);
  const std::vector<ServingModel::RowScore> reference =
      model.ScoreRows(queries);

  // A linger budget far beyond the test's lifetime and a batch larger
  // than the request count: nothing dispatches until Shutdown, which
  // must flush the whole queue in its drain.
  MicroBatcher::Options options;
  options.max_batch = 64;
  options.max_wait_us = 10'000'000;
  MicroBatcher batcher(&model, options);

  std::atomic<int64_t> entered{0};
  std::vector<ServingModel::RowScore> got(
      static_cast<size_t>(queries.rows()));
  std::vector<std::thread> clients;
  for (int64_t i = 0; i < queries.rows(); ++i) {
    clients.emplace_back([&, i] {
      std::vector<double> row(kDim);
      for (int64_t d = 0; d < kDim; ++d) row[d] = queries(i, d);
      entered.fetch_add(1);
      got[static_cast<size_t>(i)] = batcher.ScoreRow(row);
    });
  }
  while (entered.load() < queries.rows()) std::this_thread::yield();
  // Give the last clients time to move from the counter into the
  // queue before shutting down.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  batcher.Shutdown();
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(batcher.rows_scored(), queries.rows());
  for (int64_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].y0,
              reference[static_cast<size_t>(i)].y0);
    EXPECT_EQ(got[static_cast<size_t>(i)].y1,
              reference[static_cast<size_t>(i)].y1);
  }
}

TEST(ServingConcurrencyTest, EnvKnobsResolveWhenOptionsAreDefault) {
  const ServingModel model = MakeModel();
  setenv("SBRL_SERVE_MAX_BATCH", "5", /*overwrite=*/1);
  setenv("SBRL_SERVE_MAX_WAIT_US", "7", /*overwrite=*/1);
  {
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 5);
    EXPECT_EQ(batcher.max_wait_us(), 7);
  }
  {
    // Explicit options beat the environment.
    MicroBatcher::Options options;
    options.max_batch = 2;
    options.max_wait_us = 0;
    MicroBatcher batcher(&model, options);
    EXPECT_EQ(batcher.max_batch(), 2);
    EXPECT_EQ(batcher.max_wait_us(), 0);
  }
  unsetenv("SBRL_SERVE_MAX_BATCH");
  unsetenv("SBRL_SERVE_MAX_WAIT_US");
  {
    // Without options or env, the defaults apply.
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 32);
    EXPECT_EQ(batcher.max_wait_us(), 200);
  }
}

TEST(ServingConcurrencyTest, MalformedEnvKnobsFallBackToDefaults) {
  const ServingModel model = MakeModel();
  // Garbage and overflow must resolve to the defaults — old strtoll
  // parsing turned the overflow case into LLONG_MAX.
  setenv("SBRL_SERVE_MAX_BATCH", "many", /*overwrite=*/1);
  setenv("SBRL_SERVE_MAX_WAIT_US", "9223372036854775808", 1);
  {
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 32);
    EXPECT_EQ(batcher.max_wait_us(), 200);
  }
  // Below-minimum values are rejected the same way.
  setenv("SBRL_SERVE_MAX_BATCH", "0", 1);
  setenv("SBRL_SERVE_MAX_WAIT_US", "-5", 1);
  {
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 32);
    EXPECT_EQ(batcher.max_wait_us(), 200);
  }
  unsetenv("SBRL_SERVE_MAX_BATCH");
  unsetenv("SBRL_SERVE_MAX_WAIT_US");
}

TEST(ServingConcurrencyTest, ShutdownIsIdempotent) {
  const ServingModel model = MakeModel();
  MicroBatcher batcher(&model);
  std::vector<double> row(kDim, 0.25);
  const ServingModel::RowScore score = batcher.ScoreRow(row);
  EXPECT_EQ(score.ite, score.y1 - score.y0);
  batcher.Shutdown();
  batcher.Shutdown();  // second call is a no-op, destructor a third
}

}  // namespace
}  // namespace serve
}  // namespace sbrl
