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
  for (int i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[static_cast<size_t>(i - 1)];
    state_[static_cast<size_t>(i)] =
        6364136223846793005ULL * (prev ^ (prev >> 62)) +
        static_cast<uint64_t>(i);
  }
}

void Mt19937_64Block::Refill() {
  // The std::mersenne_twister_engine recurrence with the `y & 1 ? a : 0`
  // select written as a mask, in the same three index ranges so each
  // loop reads only words the recurrence has already settled.
  constexpr int kShift = 156;  // m
  constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  uint64_t* x = state_.data();
  const auto twist = [](uint64_t hi_word, uint64_t lo_word, uint64_t far) {
    const uint64_t y = (hi_word & kUpper) | (lo_word & kLower);
    return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrix);
  };
  for (int k = 0; k < kStateSize - kShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (int k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = twist(x[kStateSize - 1], x[0], x[kShift - 1]);
  for (int k = 0; k < kStateSize; ++k) {
    uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    out_[static_cast<size_t>(k)] = z;
  }
  next_ = 0;
}

Rng Rng::Fork() {
  // Mix the parent stream into a fresh seed; splitting by drawing a
  // 64-bit value keeps parent and child streams decorrelated.
  return Rng(engine_());
}

}  // namespace sbrl
