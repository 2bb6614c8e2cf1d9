#include "eval/session.h"

#include "common/check.h"

namespace sbrl {

ExperimentSession::RunLease::~RunLease() {
  if (session_ != nullptr) session_->Release(pool_);
}

MatrixPool* ExperimentSession::RunLease::tape_pool() {
  SBRL_CHECK(pool_ != nullptr) << "lease was moved from";
  return pool_;
}

ExperimentSession::RunLease ExperimentSession::AcquireRun() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_pools_.empty()) {
    MatrixPool* pool = free_pools_.back();
    free_pools_.pop_back();
    return RunLease(this, pool);
  }
  all_pools_.push_back(std::make_unique<MatrixPool>());
  return RunLease(this, all_pools_.back().get());
}

void ExperimentSession::Release(MatrixPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  free_pools_.push_back(pool);
}

int64_t ExperimentSession::resource_sets_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(all_pools_.size());
}

}  // namespace sbrl
