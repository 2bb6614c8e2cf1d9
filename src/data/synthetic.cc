#include "data/synthetic.h"

#include <array>
#include <cmath>
#include <vector>

#include "data/sampling.h"
#include "tensor/linalg.h"

namespace sbrl {

SyntheticModel::SyntheticModel(const SyntheticDims& dims, uint64_t seed,
                               int64_t calibration_pool)
    : dims_(dims) {
  SBRL_CHECK_GT(dims.m_i, 0);
  SBRL_CHECK_GT(dims.m_c, 0);
  SBRL_CHECK_GT(dims.m_a, 0);
  SBRL_CHECK_GT(dims.m_v, 0);
  Rng rng(seed);
  theta_t_ = rng.Rand(dims.m_i + dims.m_c, 1, 8.0, 16.0);
  theta_y0_ = rng.Rand(dims.m_c + dims.m_a, 1, 8.0, 16.0);
  theta_y1_ = rng.Rand(dims.m_c + dims.m_a, 1, 8.0, 16.0);

  // Calibrate the outcome thresholds on a large unbiased pool so the
  // structural equations (and hence P(Y|X)) are environment-invariant.
  // The engine is seeded as rng.Fork() would seed a child Rng.
  SBRL_CHECK_GT(calibration_pool, 100);
  Mt19937_64Block cal_engine(rng.engine()());
  const double denom = 10.0 * static_cast<double>(dims.m_c + dims.m_a);
  double sum0 = 0.0, sum1 = 0.0;
  for (int64_t i = 0; i < calibration_pool; ++i) {
    double z0 = 0.0, z1 = 0.0;
    for (int64_t j = 0; j < dims.m_c + dims.m_a; ++j) {
      const double xj = StdNormal(cal_engine);
      z0 += theta_y0_(j, 0) * xj;
      z1 += theta_y1_(j, 0) * xj * xj;
    }
    sum0 += z0 / denom;
    sum1 += z1 / denom;
  }
  thr0_ = sum0 / static_cast<double>(calibration_pool);
  thr1_ = sum1 / static_cast<double>(calibration_pool);
}

namespace {

/// splitmix64-style mix of (env_seed, chunk_index) into a chunk engine
/// seed; a pure counter-based draw keyed the same way as the RFF slot
/// seeds, so chunk content is traversal-order independent.
uint64_t ChunkSeed(uint64_t env_seed, uint64_t chunk_index) {
  uint64_t z = env_seed + 0x9e3779b97f4a7c15ULL * (chunk_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

CausalDataset SyntheticModel::SampleEnvironmentChunk(
    int64_t rows, double rho, uint64_t env_seed, int64_t chunk_index) const {
  SBRL_CHECK_GE(chunk_index, 0);
  const uint64_t seed = ChunkSeed(env_seed, static_cast<uint64_t>(chunk_index));
  if (rho == 1.0) return SampleSeeded(rows, /*bias=*/nullptr, seed);
  const BiasRate rate(rho);
  return SampleSeeded(rows, &rate, seed);
}

CausalDataset SyntheticModel::SampleEnvironment(int64_t n, double rho,
                                                uint64_t env_seed) const {
  SBRL_CHECK_GT(n, 0);
  const BiasRate rate(rho);
  return SampleSeeded(n, &rate, env_seed);
}

CausalDataset SyntheticModel::SampleSeeded(int64_t n, const BiasRate* bias,
                                           uint64_t seed) const {
  SBRL_CHECK_GT(n, 0);
  const int64_t m = dims_.total();
  CausalDataset data;
  data.x = Matrix(n, m);
  data.y = Matrix(n, 1);
  data.mu0 = Matrix(n, 1);
  data.mu1 = Matrix(n, 1);
  data.t.resize(static_cast<size_t>(n));
  data.binary_outcome = true;

  Mt19937_64Block engine(seed);
  const int64_t m_ic = dims_.m_i + dims_.m_c;
  const int64_t m_ca = dims_.m_c + dims_.m_a;
  const int64_t v_begin = unstable_begin();
  const double denom = 10.0 * static_cast<double>(m_ca);
  // One candidate's polar points in draw order: one per covariate
  // column, then the treatment noise's. A point becomes its normal
  // (FinishPolar) only once a decision or an accepted row needs it.
  std::vector<PolarPoint> points(static_cast<size_t>(m + 1));
  std::vector<double> unstable(static_cast<size_t>(dims_.m_v));
  const int64_t max_attempts = n * 100000;
  int64_t accepted = 0;
  int64_t attempts = 0;
  while (accepted < n) {
    SBRL_CHECK_LT(attempts, max_attempts)
        << "rejection sampling failed to reach n=" << n
        << " at rho=" << (bias != nullptr ? bias->rho : 1.0)
        << "; acceptance rate too low";
    ++attempts;
    for (PolarPoint& p : points) p = DrawPolarPoint(engine);
    // std::bernoulli_distribution(p): one canonical draw, `< p`.
    const double treatment_u = Canonical53(engine);
    // A candidate is finished into the next free row; a rejected one is
    // overwritten by the following candidate.
    double* x = data.x.data() + accepted * m;
    const auto finish = [&](int64_t begin, int64_t end) {
      for (int64_t j = begin; j < end; ++j) {
        x[j] = FinishPolar(points[static_cast<size_t>(j)]);
      }
    };
    // Potential outcomes from confounders + adjusters, computed once;
    // returns the ITE y1 - y0.
    double y0 = 0.0, y1 = 0.0;
    bool outcomes_done = false;
    const auto outcomes = [&] {
      if (!outcomes_done) {
        outcomes_done = true;
        finish(dims_.m_i, v_begin);
        double z0 = 0.0, z1 = 0.0;
        for (int64_t j = 0; j < m_ca; ++j) {
          const double xj = x[dims_.m_i + j];
          z0 += theta_y0_(j, 0) * xj;
          z1 += theta_y1_(j, 0) * xj * xj;
        }
        y0 = (z0 / denom > thr0_) ? 1.0 : 0.0;
        y1 = (z1 / denom > thr1_) ? 1.0 : 0.0;
      }
      return y1 - y0;
    };
    finish(v_begin, m);
    if (bias != nullptr) {
      // y1 - y0 is -1, 0 or +1: weigh the unit at all three, and finish
      // the outcome columns only if the weights leave the decision open.
      for (int64_t v = 0; v < dims_.m_v; ++v) {
        unstable[static_cast<size_t>(v)] = x[v_begin + v];
      }
      std::array<double, 3> log_w;
      for (int i = 0; i < 3; ++i) {
        log_w[static_cast<size_t>(i)] =
            BiasedSelectionLogWeight(i - 1.0, unstable, *bias);
      }
      if (!AcceptBiasedLazy(log_w, outcomes, engine)) continue;
    }
    outcomes();
    finish(0, dims_.m_i);
    // Treatment from instruments + confounders
    // (paper: z = theta_t.X_IC/10 + xi).
    double zt = 0.0;
    for (int64_t j = 0; j < m_ic; ++j) zt += theta_t_(j, 0) * x[j];
    zt = zt / 10.0 + FinishPolar(points[static_cast<size_t>(m)]);
    const int t = treatment_u < StableSigmoid(zt) ? 1 : 0;
    data.t[static_cast<size_t>(accepted)] = t;
    data.mu0(accepted, 0) = y0;
    data.mu1(accepted, 0) = y1;
    data.y(accepted, 0) = t == 1 ? y1 : y0;
    ++accepted;
  }
  return data;
}

CausalDataset SyntheticModel::SampleUnbiased(int64_t n,
                                             uint64_t env_seed) const {
  SBRL_CHECK_GT(n, 0);
  return SampleSeeded(n, /*bias=*/nullptr, env_seed);
}

}  // namespace sbrl
