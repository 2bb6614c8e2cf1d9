// Tests for the ThreadPool / ParallelFor backend: coverage of every
// index exactly once, 0/1-worker edge cases, exception propagation
// (also on the contended path, where a loop arrives while another is
// in flight), nested use, and grain-based serial fallback.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sbrl {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsSeriallyOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> seen;
  pool.ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (int64_t i = lo; i < hi; ++i) seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, EveryIndexCoveredExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  const int64_t n = 10000;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, 200, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);

  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(5, 3, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainKeepsSmallRangesSerial) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  // total (64) <= min_grain (64): must run inline on the caller as one
  // chunk — the serial fallback the tensor kernels rely on.
  pool.ParallelFor(0, 64, 64, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 64);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int64_t> completed{0};
  try {
    pool.ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
      if (lo == 0) throw std::runtime_error("chunk failed");
      completed.fetch_add(hi - lo);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failed");
  }
  // Remaining chunks still ran: the loop drains before rethrowing.
  EXPECT_GT(completed.load(), 0);
}

TEST(ThreadPoolTest, PropagatesFirstExceptionWhileAnotherLoopIsInFlight) {
  // The contended path, forced: a first loop holds every lane until
  // released, so a second thread's loop finds the pool busy and runs
  // its chunks alone on that thread. A throwing first chunk must not
  // skip the others there either.
  ThreadPool pool(2);
  // The first loop reaches the pool only when its try_to_lock on the
  // pool mutex succeeds; otherwise it runs alone on its own thread and
  // leaves the pool free for the second loop. Each of its chunks holds
  // its lane, so all three chunks entered means the first thread and
  // both workers are inside it: it was published. Until then, release
  // it and set up again.
  constexpr int64_t kFirstChunks = 3;
  std::atomic<int64_t> entered{0};
  std::atomic<bool> release{false};
  std::thread first;
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 20) << "the first loop never reached the pool";
    entered.store(0);
    release.store(false);
    first = std::thread([&] {
      pool.ParallelFor(0, kFirstChunks, 1, [&](int64_t, int64_t) {
        entered.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (entered.load() < kFirstChunks &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (entered.load() == kFirstChunks) break;
    release.store(true);
    first.join();
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int64_t> completed{0};
  try {
    pool.ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      if (lo == 0) throw std::runtime_error("chunk failed");
      completed.fetch_add(hi - lo);
    });
    ADD_FAILURE() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failed");
  }
  release.store(true);
  first.join();
  // Every chunk but the throwing one ran before the rethrow.
  EXPECT_GT(completed.load(), 0);
  EXPECT_LT(completed.load(), 1000);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterException) {
  // Robustness contract: a throwing chunk must not wedge workers or
  // poison pool state — the very next ParallelFor on the same pool has
  // to behave normally. (A failure mode here would surface as the whole
  // training run hanging after one bad tape node.)
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(0, 100, 1,
                         [&](int64_t lo, int64_t hi) {
                           if (lo <= 50 && 50 < hi) {
                             throw std::runtime_error("boom");
                           }
                         }),
        std::runtime_error);
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  }
}

TEST(ThreadPoolTest, GlobalPoolSurvivesExceptionToo) {
  // Same drill against the shared process-wide pool every kernel uses.
  ThreadPool& pool = ThreadPool::Global();
  EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                [&](int64_t lo, int64_t) {
                                  if (lo == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  std::atomic<int64_t> count{0};
  pool.ParallelFor(0, 256, 1, [&](int64_t lo, int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // A nested loop on the same pool must not deadlock; it runs
      // serially inline on whichever thread is executing this chunk.
      pool.ParallelFor(0, 10, 1,
                       [&](int64_t l2, int64_t h2) { total.fetch_add(h2 - l2); });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, NestedLoopIsOneCallOnEveryLaneCallerIncluded) {
  // A nested loop never chunks, whichever lane runs the outer chunk:
  // the caller's lane must not pay the contended path's partition.
  ThreadPool pool(2);
  std::atomic<int> split_calls{0};
  pool.ParallelFor(0, 12, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 100, 1, [&](int64_t l2, int64_t h2) {
        if (l2 != 0 || h2 != 100) split_calls.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(split_calls.load(), 0);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 256, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) sum.fetch_add(1);
    });
    ASSERT_EQ(sum.load(), 256) << "round " << round;
  }
}

TEST(ThreadPoolTest, FreeFunctionUsesGlobalPool) {
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  EXPECT_GE(ThreadPool::GlobalParallelism(), 1);
}

}  // namespace
}  // namespace sbrl
