#ifndef SBRL_COMMON_THREAD_POOL_H_
#define SBRL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sbrl {

/// Default of SerialCutoff(): work below this many scalar operations
/// (flops or mapped elements) runs serially inline — one chunk of this
/// size amortizes the ~10us dispatch cost, and bench/test-sized shapes
/// never leave the calling thread. Shared by the tensor kernels and
/// the elementwise autodiff ops so "small" means the same thing
/// everywhere.
constexpr int64_t kParallelSerialCutoff = 1 << 16;

/// The runtime serial-inline cutoff every parallel kernel compares its
/// flop count against (and derives its ParallelFor grain from, so one
/// knob tunes both). Defaults to kParallelSerialCutoff; overridable for
/// a process via the SBRL_SERIAL_CUTOFF environment variable (a
/// positive integer, read once on first use). Every kernel splits work
/// on fixed per-element / per-row boundaries, so changing the cutoff
/// re-balances scheduling only — results stay bitwise identical (see
/// docs/ARCHITECTURE.md).
int64_t SerialCutoff();

/// Persistent worker-thread pool driving data-parallel loops.
///
/// The pool owns `num_workers` background threads; the calling thread
/// also participates in every ParallelFor, so a pool constructed with 0
/// workers is a plain serial loop. One pool is shared process-wide via
/// Global(), sized by the SBRL_NUM_THREADS environment variable
/// (default: hardware concurrency). Kernels split work over DISJOINT
/// output ranges only, so results never depend on the worker count.
class ThreadPool {
 public:
  /// Pool with `num_workers` background threads (>= 0). The total
  /// parallelism of ParallelFor is num_workers + 1 (caller included).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of background worker threads (total lanes minus one).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs body(lo, hi) over a partition of [begin, end) across the pool,
  /// blocking until every chunk finished. Chunks hold at least
  /// `min_grain` indices (>= 1). The first exception thrown by any chunk
  /// is rethrown on the calling thread after the loop drains. Calls from
  /// inside a chunk on any lane (nested parallelism) run serially inline
  /// as one body(begin, end) call; calls from another thread while a
  /// loop is in flight run their own chunks serially on that thread.
  /// Either way ParallelFor is safe to use anywhere without deadlocking.
  void ParallelFor(int64_t begin, int64_t end, int64_t min_grain,
                   const std::function<void(int64_t, int64_t)>& body);

  /// Process-wide pool. Worker count = SBRL_NUM_THREADS - 1 when the
  /// variable is set to a positive integer, else hardware concurrency
  /// - 1. Constructed on first use.
  static ThreadPool& Global();

  /// Total parallel lanes of the global pool (workers + caller).
  static int GlobalParallelism();

  /// TEST-ONLY: replaces the process-wide pool with one holding
  /// `num_workers` background threads (joining the old pool's workers),
  /// so a single test process can compare results across worker
  /// counts — the golden-trace suite proves bitwise thread-count
  /// invariance this way. Must not race an in-flight ParallelFor; call
  /// only from a quiescent test main thread.
  static void ResetGlobalForTest(int num_workers);

 private:
  struct Job;

  void WorkerLoop();
  /// Pulls and runs chunks of `job` until none remain; records the first
  /// exception into the job.
  static void RunChunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::shared_ptr<Job> job_;  // non-null while a loop is in flight
  bool shutdown_ = false;
};

/// ParallelFor on the global pool: splits [begin, end) into chunks of at
/// least `min_grain` indices and runs body(lo, hi) on each. Falls back
/// to a serial inline loop when the range fits in one chunk or the pool
/// has no workers. `min_grain` doubles as the serial-fallback cutoff:
/// size the grain so one chunk amortizes dispatch (~10us) and tiny
/// benchmark/test shapes never leave the calling thread.
void ParallelFor(int64_t begin, int64_t end, int64_t min_grain,
                 const std::function<void(int64_t, int64_t)>& body);

}  // namespace sbrl

#endif  // SBRL_COMMON_THREAD_POOL_H_
