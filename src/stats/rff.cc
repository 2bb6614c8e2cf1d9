#include "stats/rff.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "tensor/kernels.h"
#include "tensor/linalg.h"

namespace sbrl {

namespace {

/// Relative cost weight of one cosine evaluation in units of the
/// cache-blocked matmul flops that calibrate the shared serial cutoff:
/// a libm cosine costs roughly this many multiply-adds, so the sweeps
/// weigh their element count by it before comparing against
/// SerialCutoff().
constexpr int64_t kCosFlopWeight = 16;

/// Per-thread cosine-sweep wall-clock total, in nanoseconds. Thread-
/// local so concurrent runs (which each execute on one thread) never
/// see each other's sweep time in their deltas.
thread_local int64_t t_cos_sweep_nanos = 0;

void AccrueCosSweep(const Timer& timer) {
  t_cos_sweep_nanos += static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
}

/// splitmix64 finalizer: a fast, well-mixed 64-bit hash used to derive
/// independent per-slot seeds from (epoch, in_dim, k, slot).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Writes the angle block v * w[f] + phi[f] (no cosine, no scale) of
/// column `col` into columns [col_offset, col_offset + k) of `*out` —
/// the first half of every column RFF evaluation. The cosine epilogue
/// is applied afterwards by the shared sweep, over as large a
/// contiguous run as the caller can arrange.
void WriteRffAnglesToColumnInto(const RffProjection& proj, const Matrix& x,
                                int64_t col, Matrix* out,
                                int64_t col_offset) {
  SBRL_CHECK_EQ(proj.in_dim(), 1);
  SBRL_CHECK(col >= 0 && col < x.cols());
  const int64_t n = x.rows(), kf = proj.num_features();
  SBRL_CHECK_EQ(out->rows(), n);
  SBRL_CHECK(col_offset >= 0 && col_offset + kf <= out->cols())
      << "feature block [" << col_offset << ", " << col_offset + kf
      << ") out of range for " << out->ShapeString();
  const double* xcol = x.data() + col;
  const int64_t stride = x.cols();
  const double* wd = proj.w.data();
  const double* phid = proj.phi.data();
  const int64_t ocols = out->cols();
  double* od = out->data() + col_offset;
  for (int64_t i = 0; i < n; ++i) {
    const double v = xcol[i * stride];
    double* orow = od + i * ocols;
    for (int64_t f = 0; f < kf; ++f) {
      orow[f] = v * wd[f] + phid[f];
    }
  }
}

}  // namespace

void ScaledCosInPlace(double* x, int64_t n, double scale) {
  SBRL_CHECK_GE(n, 0);
  Timer timer;
  const auto scaled_cos = ActiveLinalgKernels().scaled_cos;
  const int64_t grain = std::max<int64_t>(1, SerialCutoff() / kCosFlopWeight);
  ParallelFor(0, n, grain, [x, scale, scaled_cos](int64_t lo, int64_t hi) {
    scaled_cos(x + lo, hi - lo, scale);
  });
  AccrueCosSweep(timer);
}

double CosSweepSecondsThisThread() {
  return static_cast<double>(t_cos_sweep_nanos) * 1e-9;
}

RffProjection SampleRff(Rng& rng, int64_t in_dim, int64_t num_features) {
  SBRL_CHECK_GT(in_dim, 0);
  SBRL_CHECK_GT(num_features, 0);
  RffProjection proj;
  proj.w = rng.Randn(in_dim, num_features);
  proj.phi = rng.Rand(1, num_features, 0.0, 2.0 * M_PI);
  return proj;
}

uint64_t RffSlotSeed(uint64_t epoch_seed, int64_t in_dim,
                     int64_t num_features, int64_t slot) {
  uint64_t h = SplitMix64(epoch_seed);
  h = SplitMix64(h ^ static_cast<uint64_t>(in_dim));
  h = SplitMix64(h ^ static_cast<uint64_t>(num_features));
  return SplitMix64(h ^ static_cast<uint64_t>(slot));
}

RffProjection SampleRffSlot(uint64_t epoch_seed, int64_t in_dim,
                            int64_t num_features, int64_t slot) {
  Rng rng(RffSlotSeed(epoch_seed, in_dim, num_features, slot));
  return SampleRff(rng, in_dim, num_features);
}

const RffProjection& RffSlotDraws::Slot(int64_t col, int64_t num_features) {
  SBRL_CHECK_GE(col, 0);
  if (static_cast<int64_t>(slots.size()) <= col) {
    slots.resize(static_cast<size_t>(col) + 1);
  }
  RffProjection& entry = slots[static_cast<size_t>(col)];
  if (entry.w.rows() == 0) {  // sentinel: not drawn yet
    entry = SampleRffSlot(epoch_seed, 1, num_features, col);
  }
  SBRL_CHECK_EQ(entry.num_features(), num_features);
  return entry;
}

Matrix ApplyRff(const RffProjection& proj, const Matrix& x) {
  SBRL_CHECK_EQ(x.cols(), proj.in_dim());
  // Angle pass: the projection sum accumulates over in_dim in ascending
  // order exactly like Matmul, so angles match the former Matmul +
  // AddRowBroadcast chain without the intermediate matrices. The
  // cosine epilogue then runs over the whole buffer as one flat sweep.
  const int64_t n = x.rows(), d = x.cols(), kf = proj.num_features();
  const double* xd = x.data();
  const double* wd = proj.w.data();
  const double* phid = proj.phi.data();
  Matrix out(n, kf);
  double* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const double* xrow = xd + i * d;
    double* orow = od + i * kf;
    for (int64_t f = 0; f < kf; ++f) {
      double acc = 0.0;
      for (int64_t j = 0; j < d; ++j) acc += xrow[j] * wd[j * kf + f];
      orow[f] = acc + phid[f];
    }
  }
  ScaledCosInPlace(out.data(), out.size(), std::sqrt(2.0));
  return out;
}

Matrix ApplyRffToColumn(const RffProjection& proj, const Matrix& x,
                        int64_t col) {
  Matrix out(x.rows(), proj.num_features());
  WriteRffAnglesToColumnInto(proj, x, col, &out, 0);
  ScaledCosInPlace(out.data(), out.size(), std::sqrt(2.0));
  return out;
}

void StackRffColumns(const Matrix& x, const std::vector<int64_t>& cols,
                     int64_t num_features, RffSlotDraws* draws, Matrix* out) {
  const int64_t n_cols = static_cast<int64_t>(cols.size());
  const int64_t k = num_features;
  SBRL_CHECK_EQ(out->rows(), x.rows());
  SBRL_CHECK_EQ(out->cols(), n_cols * k);
  // Draw the missing slots serially first (the slot vector may grow),
  // then take the views the parallel fill reads.
  for (int64_t col : cols) draws->Slot(col, k);
  std::vector<const RffProjection*> projs;
  projs.reserve(cols.size());
  for (int64_t col : cols) projs.push_back(&draws->Slot(col, k));
  // The angle fill is ~2 flops per element; weigh columns accordingly
  // so the serial cutoff engages at comparable wall cost to the matmul
  // kernels. (The cosine cost moved to the flat sweep below.)
  const int64_t work_per_col = x.rows() * k * 2;
  const int64_t grain = std::max<int64_t>(
      1, SerialCutoff() / std::max<int64_t>(1, work_per_col));
  ParallelFor(0, n_cols, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      WriteRffAnglesToColumnInto(*projs[static_cast<size_t>(i)], x,
                                 cols[static_cast<size_t>(i)], out, i * k);
    }
  });
  // Flat-angle epilogue: the full (n x n_cols*k) buffer is one
  // contiguous run, so the vectorized kernel sees long trip counts
  // instead of k-wide inner loops.
  ScaledCosInPlace(out->data(), out->size(), std::sqrt(2.0));
}

}  // namespace sbrl
