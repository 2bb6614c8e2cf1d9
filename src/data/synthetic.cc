#include "data/synthetic.h"

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
  if (rho == 1.0) return SampleSeeded(rows, /*biased=*/false, rho, seed);
  SBRL_CHECK_GT(std::abs(rho), 1.0) << "bias rate must satisfy |rho| > 1";
  return SampleSeeded(rows, /*biased=*/true, rho, seed);
}

CausalDataset SyntheticModel::SampleEnvironment(int64_t n, double rho,
                                                uint64_t env_seed) const {
  SBRL_CHECK_GT(n, 0);
  SBRL_CHECK_GT(std::abs(rho), 1.0) << "bias rate must satisfy |rho| > 1";
  return SampleSeeded(n, /*biased=*/true, rho, env_seed);
}

CausalDataset SyntheticModel::SampleSeeded(int64_t n, bool biased, double rho,
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
  const int64_t m_ca = dims_.m_c + dims_.m_a;
  const double denom = 10.0 * static_cast<double>(m_ca);
  std::vector<double> unstable(static_cast<size_t>(dims_.m_v));
  const int64_t max_attempts = n * 100000;
  int64_t accepted = 0;
  int64_t attempts = 0;
  while (accepted < n) {
    SBRL_CHECK_LT(attempts, max_attempts)
        << "rejection sampling failed to reach n=" << n
        << " at rho=" << rho << "; acceptance rate too low";
    ++attempts;
    // A candidate is drawn into the next free row; a rejected one is
    // overwritten by the following candidate.
    double* x = data.x.data() + accepted * m;
    for (int64_t j = 0; j < m; ++j) x[j] = StdNormal(engine);
    // Treatment from instruments + confounders (paper: z = theta_t.X_IC/10 + xi).
    double zt = 0.0;
    for (int64_t j = 0; j < dims_.m_i + dims_.m_c; ++j) {
      zt += theta_t_(j, 0) * x[j];
    }
    zt = zt / 10.0 + StdNormal(engine);
    // std::bernoulli_distribution(p): one canonical draw, `< p`.
    const int t = Canonical53(engine) < StableSigmoid(zt) ? 1 : 0;
    // Potential outcomes from confounders + adjusters.
    double z0 = 0.0, z1 = 0.0;
    for (int64_t j = 0; j < m_ca; ++j) {
      const double xj = x[dims_.m_i + j];
      z0 += theta_y0_(j, 0) * xj;
      z1 += theta_y1_(j, 0) * xj * xj;
    }
    const double y0 = (z0 / denom > thr0_) ? 1.0 : 0.0;
    const double y1 = (z1 / denom > thr1_) ? 1.0 : 0.0;
    if (biased) {
      for (int64_t v = 0; v < dims_.m_v; ++v) {
        unstable[static_cast<size_t>(v)] = x[unstable_begin() + v];
      }
      const double log_w = BiasedSelectionLogWeight(y1 - y0, unstable, rho);
      if (!AcceptWithLogProb(log_w, engine)) continue;
    }
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
  return SampleSeeded(n, /*biased=*/false, /*rho=*/1.0, env_seed);
}

}  // namespace sbrl
