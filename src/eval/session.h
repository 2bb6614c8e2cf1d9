#ifndef SBRL_EVAL_SESSION_H_
#define SBRL_EVAL_SESSION_H_

#include <memory>
#include <mutex>
#include <vector>

#include "tensor/pool.h"

namespace sbrl {

/// Owner of the tape buffer arenas an in-process experiment sweep
/// recycles across runs. Each run checks one MatrixPool out through an
/// AcquireRun() lease and owns it exclusively while it trains;
/// returning the lease parks the pool for the next run, so a
/// steady-state sweep keeps warm buffers instead of reallocating per
/// run. Which run gets which recycled pool is schedule-dependent, but
/// MatrixPool::AcquireZero zeroes recycled buffers, so results stay
/// bitwise independent of the schedule — the sweep-determinism
/// contract (docs/ARCHITECTURE.md "Experiment engine").
///
/// Thread-safe: AcquireRun() / lease release may be called from any
/// thread; the pool INSIDE a lease belongs to exactly one run.
class ExperimentSession {
 public:
  ExperimentSession() = default;
  ExperimentSession(const ExperimentSession&) = delete;
  ExperimentSession& operator=(const ExperimentSession&) = delete;

  /// RAII lease of one run's tape pool; returns it to the session's
  /// free list on destruction. Move-only. The lease must not outlive
  /// the session.
  class RunLease {
   public:
    RunLease(RunLease&& other) noexcept
        : session_(other.session_), pool_(other.pool_) {
      other.session_ = nullptr;
      other.pool_ = nullptr;
    }
    RunLease& operator=(RunLease&&) = delete;
    RunLease(const RunLease&) = delete;
    RunLease& operator=(const RunLease&) = delete;
    ~RunLease();

    /// The leased buffer arena, valid for the lease lifetime.
    MatrixPool* tape_pool();

   private:
    friend class ExperimentSession;
    RunLease(ExperimentSession* session, MatrixPool* pool)
        : session_(session), pool_(pool) {}

    ExperimentSession* session_;
    MatrixPool* pool_;
  };

  /// Checks out a tape pool for one run: a recycled pool when one is
  /// parked, else a freshly created one.
  RunLease AcquireRun();

  /// Pools created so far — equals the peak number of concurrently
  /// leased runs, letting tests assert recycling happens.
  int64_t resource_sets_created() const;

 private:
  void Release(MatrixPool* pool);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<MatrixPool>> all_pools_;
  std::vector<MatrixPool*> free_pools_;
};

}  // namespace sbrl

#endif  // SBRL_EVAL_SESSION_H_
