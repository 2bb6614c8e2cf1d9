#include "tensor/random.h"

#include <algorithm>
#include <numeric>

namespace sbrl {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

Matrix Rng::Randn(int64_t rows, int64_t cols, double mean, double stddev) {
  Matrix out(rows, cols);
  std::normal_distribution<double> dist(mean, stddev);
  for (int64_t i = 0; i < out.size(); ++i) out[i] = dist(engine_);
  return out;
}

Matrix Rng::Rand(int64_t rows, int64_t cols, double lo, double hi) {
  Matrix out(rows, cols);
  std::uniform_real_distribution<double> dist(lo, hi);
  for (int64_t i = 0; i < out.size(); ++i) out[i] = dist(engine_);
  return out;
}

std::vector<int64_t> Rng::Permutation(int64_t n) {
  std::vector<int64_t> idx(static_cast<size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), engine_);
  return idx;
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  SBRL_CHECK_LE(k, n);
  std::vector<int64_t> idx = Permutation(n);
  idx.resize(static_cast<size_t>(k));
  return idx;
}

Mt19937_64Block::Mt19937_64Block(uint64_t seed) {
  state_[0] = seed;
  for (int i = 1; i < kMt19937_64Words; ++i) {
    const uint64_t prev = state_[static_cast<size_t>(i - 1)];
    state_[static_cast<size_t>(i)] =
        6364136223846793005ULL * (prev ^ (prev >> 62)) +
        static_cast<uint64_t>(i);
  }
}

void Mt19937_64Block::Refill() {
  ActiveLinalgKernels().mt19937_64_refill(state_.data(), out_.data(),
                                          canonical_.data(),
                                          coordinate_.data());
  next_ = 0;
}

Rng Rng::Fork() {
  // Mix the parent stream into a fresh seed; splitting by drawing a
  // 64-bit value keeps parent and child streams decorrelated.
  return Rng(engine_());
}

}  // namespace sbrl
