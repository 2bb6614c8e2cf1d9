#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "common/check.h"
#include "common/cpu.h"
#include "common/env.h"

namespace sbrl {

namespace {

/// True inside a pool worker thread, and on a caller thread while it
/// runs chunks; nested ParallelFor calls there run inline as one call
/// to avoid self-deadlock.
thread_local bool t_inside_worker = false;

/// Runtime serial cutoff; 0 means "not yet resolved from the env".
std::atomic<int64_t> g_serial_cutoff{0};

int EnvThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int64_t fallback = hw == 0 ? 1 : static_cast<int64_t>(hw);
  const int64_t parsed =
      ParseEnvInt64("SBRL_NUM_THREADS", /*min_value=*/1, fallback);
  // A pool of 2^20 threads is certainly a knob mistake; clamping also
  // keeps the int cast below well-defined.
  return static_cast<int>(std::min<int64_t>(parsed, 1 << 20));
}

}  // namespace

/// One in-flight ParallelFor: workers pull chunks by atomically
/// advancing `next`; the caller waits until `chunks_done` reaches
/// `chunks_total`.
struct ThreadPool::Job {
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 1;
  int64_t chunks_total = 0;
  /// The dispatching thread's ActiveIsa() at submit time. Workers pin
  /// it thread-locally while running this job's chunks, so a loop
  /// always executes at its caller's level even when the caller holds a
  /// ScopedThreadIsa override the workers cannot see — different
  /// concurrent runs must never mix kernel levels within one loop
  /// (written before publication under the pool mutex, read after).
  Isa caller_isa = Isa::kBaseline;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> chunks_done{0};

  std::mutex mu;
  std::condition_variable all_done;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int num_workers) {
  SBRL_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunChunks(Job& job) {
  // Execute at the dispatcher's kernel level (a no-op on the caller
  // thread itself, where this re-pins the level already active).
  ScopedThreadIsa isa_scope(job.caller_isa);
  const bool was_inside = t_inside_worker;
  t_inside_worker = true;
  // Chunks are independent, so an exception does not cancel the rest of
  // the loop — the first one is recorded and rethrown after the drain.
  for (;;) {
    const int64_t lo = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (lo >= job.end) break;
    const int64_t hi = std::min(lo + job.chunk, job.end);
    try {
      (*job.body)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.mu);
      if (!job.error) job.error = std::current_exception();
    }
    const int64_t done =
        job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == job.chunks_total) {
      std::lock_guard<std::mutex> lock(job.mu);
      job.all_done.notify_all();
    }
  }
  t_inside_worker = was_inside;
}

void ThreadPool::WorkerLoop() {
  t_inside_worker = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return shutdown_ || job_ != nullptr; });
      if (shutdown_) return;
      job = job_;
    }
    RunChunks(*job);
    // Park again once this job's chunks are exhausted; the caller clears
    // job_ when the loop drains.
    std::unique_lock<std::mutex> lock(mu_);
    wake_.wait(lock, [this, &job] { return shutdown_ || job_ != job; });
    if (shutdown_) return;
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t min_grain,
                             const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return;
  if (min_grain < 1) min_grain = 1;
  const int64_t total = end - begin;
  const int lanes = num_workers() + 1;
  // Serial fallback: nothing to split across, or the whole range fits in
  // one grain-sized chunk — tiny shapes never pay dispatch overhead.
  if (lanes == 1 || total <= min_grain || t_inside_worker) {
    body(begin, end);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->begin = begin;
  job->end = end;
  job->caller_isa = ActiveIsa();
  // Aim for a few chunks per lane (dynamic load balance) but never
  // below min_grain indices per chunk.
  const int64_t target_chunks =
      std::min<int64_t>(total, static_cast<int64_t>(lanes) * 4);
  job->chunk = std::max(min_grain, (total + target_chunks - 1) / target_chunks);
  job->chunks_total = (total + job->chunk - 1) / job->chunk;
  job->next.store(begin, std::memory_order_relaxed);

  bool published = false;
  {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    // Another thread's loop is in flight (or dispatch is contended):
    // the caller runs this job's chunks alone rather than waiting, so a
    // throwing chunk does not skip the rest of the loop.
    published = lock.owns_lock() && job_ == nullptr;
    if (published) job_ = job;
  }
  if (published) wake_.notify_all();

  RunChunks(*job);  // the caller is a full participant

  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->all_done.wait(lock, [&job] {
      return job->chunks_done.load(std::memory_order_acquire) ==
             job->chunks_total;
    });
  }
  if (published) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = nullptr;
    }
    wake_.notify_all();
  }

  // Take the exception out of the job under its mutex: a worker may
  // still hold the last reference to the job, and the exception_ptr's
  // refcount lives in uninstrumented libstdc++, so the job's destructor
  // must never be the one to release the exception.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    error = std::move(job->error);
  }
  if (error) std::rethrow_exception(error);
}

namespace {

/// The process-wide pool; swapped (and the old pool joined) only by
/// ResetGlobalForTest from a quiescent thread.
std::atomic<ThreadPool*> g_global_pool{nullptr};

}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* pool = g_global_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  static ThreadPool* env_pool = [] {
    ThreadPool* fresh = new ThreadPool(EnvThreadCount() - 1);
    ThreadPool* expected = nullptr;
    g_global_pool.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel);
    return fresh;
  }();
  (void)env_pool;
  return *g_global_pool.load(std::memory_order_acquire);
}

void ThreadPool::ResetGlobalForTest(int num_workers) {
  Global();  // ensure first-use initialization has happened
  ThreadPool* fresh = new ThreadPool(num_workers);
  ThreadPool* old = g_global_pool.exchange(fresh, std::memory_order_acq_rel);
  delete old;  // joins the previous workers
}

int ThreadPool::GlobalParallelism() { return Global().num_workers() + 1; }

int64_t SerialCutoff() {
  const int64_t cached = g_serial_cutoff.load(std::memory_order_relaxed);
  if (cached > 0) return cached;
  const int64_t cutoff = ParseEnvInt64("SBRL_SERIAL_CUTOFF", /*min_value=*/1,
                                       kParallelSerialCutoff);
  g_serial_cutoff.store(cutoff, std::memory_order_relaxed);
  return cutoff;
}

void ParallelFor(int64_t begin, int64_t end, int64_t min_grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  ThreadPool::Global().ParallelFor(begin, end, min_grain, body);
}

}  // namespace sbrl
