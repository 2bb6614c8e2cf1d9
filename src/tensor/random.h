#ifndef SBRL_TENSOR_RANDOM_H_
#define SBRL_TENSOR_RANDOM_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace sbrl {

/// Deterministic random number generator. All stochastic components
/// (data generation, initialization, RFF draws, pair subsampling) take an
/// Rng so experiments and tests are exactly reproducible from a seed.
class Rng {
 public:
  /// Generator seeded deterministically with `seed`.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (or N(mean, stddev)) draw. Each call builds a
  /// fresh std::normal_distribution, so the polar method's second value
  /// is discarded; that per-call distribution is part of the stream
  /// identity (docs/ARCHITECTURE.md "Synthetic stream identity") and
  /// must not be replaced by a cached one.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Matrix of iid N(mean, stddev) entries.
  Matrix Randn(int64_t rows, int64_t cols, double mean = 0.0,
               double stddev = 1.0);

  /// Matrix of iid Uniform[lo, hi) entries.
  Matrix Rand(int64_t rows, int64_t cols, double lo = 0.0, double hi = 1.0);

  /// Random permutation of {0, ..., n-1}.
  std::vector<int64_t> Permutation(int64_t n);

  /// k distinct indices sampled uniformly from {0, ..., n-1}, k <= n.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Derives an independent child generator; used to give each
  /// replication / module its own stream without coupling.
  Rng Fork();

  /// Direct access to the underlying engine (for std distributions).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// MT19937-64 producing exactly the output sequence of
/// std::mt19937_64 seeded with the same value, refilled a block at a
/// time by the active level's LinalgKernels::mt19937_64_refill: one
/// pass twists and tempers all 312 words and converts each to its
/// Canonical53 value and polar coordinate, so every draw is a buffer
/// read. Used for bulk synthetic data; Rng keeps std::mt19937_64
/// because its state is checkpointed.
class Mt19937_64Block {
 public:
  /// Engine output type (UniformRandomBitGenerator requirements).
  using result_type = uint64_t;

  /// Engine in the state of std::mt19937_64(seed).
  explicit Mt19937_64Block(uint64_t seed);

  /// Smallest output.
  static constexpr result_type min() { return 0; }
  /// Largest output.
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next output; equal to the std engine's next operator() result.
  result_type operator()() {
    if (next_ == kMt19937_64Words) Refill();
    return out_[next_++];
  }

  /// Consumes the next output as Canonical53 converts it.
  double NextCanonical() {
    if (next_ == kMt19937_64Words) Refill();
    return canonical_[next_++];
  }

  /// Consumes the next output as the polar coordinate
  /// 2 * Canonical53 - 1.
  double NextCoordinate() {
    if (next_ == kMt19937_64Words) Refill();
    return coordinate_[next_++];
  }

 private:
  void Refill();

  alignas(64) std::array<uint64_t, kMt19937_64Words> state_{};
  alignas(64) std::array<uint64_t, kMt19937_64Words> out_{};
  alignas(64) std::array<double, kMt19937_64Words> canonical_{};
  alignas(64) std::array<double, kMt19937_64Words> coordinate_{};
  int next_ = kMt19937_64Words;
};

// Exact replicas of the libstdc++ distribution algorithms the
// synthetic generator draws through, for any engine with 64-bit
// outputs spanning [0, 2^64). Each consumes the same engine outputs and
// returns the same bits as its std counterpart (tests/matrix_test.cc
// checks both under __GLIBCXX__). std::bernoulli_distribution(p) is
// one Canonical53 draw compared `< p`.

/// std::generate_canonical<double, 53>(engine): one 64-bit output `u`,
/// double(u) / 2^64, clamped below 1. double(u) is formed as the
/// correctly rounded sum hi * 2^32 + lo (both terms exact), which
/// avoids the sign-bit branch of a plain u64 -> double conversion.
template <class Engine>
double Canonical53(Engine& engine) {
  const uint64_t u = engine();
  const double hi = static_cast<double>(static_cast<uint32_t>(u >> 32));
  const double lo = static_cast<double>(static_cast<uint32_t>(u));
  const double r = (hi * 0x1p32 + lo) * 0x1p-64;
  return r < 1.0 ? r : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
}

/// Canonical53 of the block engine: the value its refill converted.
inline double Canonical53(Mt19937_64Block& engine) {
  return engine.NextCanonical();
}

/// One polar-method coordinate 2 * Canonical53 - 1.
template <class Engine>
double PolarCoordinate(Engine& engine) {
  return 2.0 * Canonical53(engine) - 1.0;
}

/// PolarCoordinate of the block engine: the value its refill converted.
inline double PolarCoordinate(Mt19937_64Block& engine) {
  return engine.NextCoordinate();
}

/// An accepted point of Marsaglia's polar method: the coordinate y
/// whose normal is kept and the squared radius r2 in (0, 1].
struct PolarPoint {
  double y;
  double r2;
};

/// Draws canonical pairs (2u1 - 1, 2u2 - 1) until one lands in the
/// unit disc without the origin: all the engine outputs one normal
/// consumes. FinishPolar turns the point into the normal.
template <class Engine>
PolarPoint DrawPolarPoint(Engine& engine) {
  double y, r2;
  do {
    const double x = PolarCoordinate(engine);
    y = PolarCoordinate(engine);
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return {y, r2};
}

/// The normal of a polar point: y * sqrt(-2 log r2 / r2). `+ 0.0` is
/// the std epilogue `ret * stddev + mean` at (1, 0): it turns the -0.0
/// of r2 == 1 (sqrt(-0.0)) into +0.0.
inline double FinishPolar(const PolarPoint& p) {
  return p.y * std::sqrt(-2.0 * std::log(p.r2) / p.r2) + 0.0;
}

/// One draw of a fresh std::normal_distribution<double>(0, 1):
/// Marsaglia polar on canonical pairs, the saved x-value discarded.
template <class Engine>
double StdNormal(Engine& engine) {
  return FinishPolar(DrawPolarPoint(engine));
}

}  // namespace sbrl

#endif  // SBRL_TENSOR_RANDOM_H_
