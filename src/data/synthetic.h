#ifndef SBRL_DATA_SYNTHETIC_H_
#define SBRL_DATA_SYNTHETIC_H_

#include <cstdint>

#include "data/causal_dataset.h"

namespace sbrl {

struct BiasRate;

/// Dimensions of the paper's synthetic covariate blocks
/// Syn_mI_mC_mA_mV: instruments I (affect T only), confounders C
/// (affect T and Y), adjusters A (affect Y only), and unstable noise V
/// (spuriously correlated with Y through biased environment sampling).
struct SyntheticDims {
  int64_t m_i = 8;
  int64_t m_c = 8;
  int64_t m_a = 8;
  int64_t m_v = 2;

  int64_t total() const { return m_i + m_c + m_a + m_v; }
};

/// The paper's synthetic structural causal model (Sec. V-D):
///   X ~ N(0, I_m)
///   T ~ Bernoulli(sigmoid(theta_t . X_IC / 10 + xi)),   xi ~ N(0,1)
///   z0 = theta_y0 . X_CA   / (10 (m_c + m_a))
///   z1 = theta_y1 . X_CA^2 / (10 (m_c + m_a))
///   Y0 = 1{z0 > mean(z0)},  Y1 = 1{z1 > mean(z1)}
/// with theta ~ U(8, 16) per coordinate. The thresholds mean(z0) /
/// mean(z1) are calibrated ONCE on a large unbiased reference pool so
/// that P(Y | X) is identical in every environment — the paper's
/// invariance requirement P^e(T, Y | X) = P^e'(T, Y | X).
///
/// Environments differ only by biased sampling with bias rate `rho`:
/// a unit is kept with probability prod_{Xv} |rho|^(-10 |ITE - sign(rho) Xv|),
/// which correlates the unstable block V with the ITE (positively for
/// rho > 1, negatively for rho < -1, more strongly for larger |rho|).
class SyntheticModel {
 public:
  /// Draws the structural coefficients and calibrates outcome
  /// thresholds from `calibration_pool` unbiased units.
  SyntheticModel(const SyntheticDims& dims, uint64_t seed,
                 int64_t calibration_pool = 20000);

  /// Samples an environment of `n` units with bias rate `rho`
  /// (requires |rho| > 1). Deterministic given `env_seed`.
  CausalDataset SampleEnvironment(int64_t n, double rho,
                                  uint64_t env_seed) const;

  /// Samples `n` units with NO biased selection (the rho -> 1 limit);
  /// useful for tests and diagnostics.
  CausalDataset SampleUnbiased(int64_t n, uint64_t env_seed) const;

  /// Chunk `chunk_index` of a streamed environment: `rows` units drawn
  /// from an engine seeded purely by (env_seed, chunk_index), so chunk
  /// content never depends on how many chunks were generated before it
  /// or on which thread asks — the determinism requirement of the
  /// streaming reader (data/streaming.h). `rho == 1.0` means unbiased
  /// sampling; any `|rho| > 1` applies the paper's biased selection
  /// within the chunk. Note the concatenated chunk stream is a
  /// *different* (equally distributed) draw than one
  /// SampleEnvironment(n) call — chunking is part of the stream
  /// identity.
  CausalDataset SampleEnvironmentChunk(int64_t rows, double rho,
                                       uint64_t env_seed,
                                       int64_t chunk_index) const;

  const SyntheticDims& dims() const { return dims_; }
  double threshold0() const { return thr0_; }
  double threshold1() const { return thr1_; }

  /// Column index ranges of each block within X.
  int64_t instruments_begin() const { return 0; }
  int64_t confounders_begin() const { return dims_.m_i; }
  int64_t adjusters_begin() const { return dims_.m_i + dims_.m_c; }
  int64_t unstable_begin() const {
    return dims_.m_i + dims_.m_c + dims_.m_a;
  }

 private:
  /// Shared sampling loop over a Mt19937_64Block seeded with `seed`:
  /// draws until `n` units are accepted, applying the rho-biased
  /// rejection only when `bias` is set. Engine outputs are consumed in
  /// the order that defines the stream (docs/ARCHITECTURE.md "Synthetic
  /// stream identity"); a candidate's normals are finished only as far
  /// as AcceptBiasedLazy and an accepted row need them.
  CausalDataset SampleSeeded(int64_t n, const BiasRate* bias,
                             uint64_t seed) const;

  SyntheticDims dims_;
  Matrix theta_t_;   // (m_i + m_c) x 1
  Matrix theta_y0_;  // (m_c + m_a) x 1
  Matrix theta_y1_;  // (m_c + m_a) x 1
  double thr0_ = 0.0;
  double thr1_ = 0.0;
};

}  // namespace sbrl

#endif  // SBRL_DATA_SYNTHETIC_H_
