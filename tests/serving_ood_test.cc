// OOD gating through the serving stack: a fitted OodLevelDetector
// exported with a model must reload verbatim (bitwise-identical
// levels), batch scoring must flag shifted populations and pass
// in-distribution ones at a fixed threshold, and per-row stamps must
// separate shifted rows from in-distribution rows independently of
// which other rows share the batch.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/ood_detector.h"
#include "data/synthetic.h"
#include "serve/micro_batcher.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"
#include "tensor/random.h"

namespace sbrl {
namespace serve {
namespace {

// Per-process, so the suite's ctest variants (and its sanitized twin)
// can run concurrently.
std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

// A minimal CFR-shaped model over 4 covariates carrying `detector`'s
// state; the network itself is incidental — these tests are about the
// OOD stamps.
ServingModelData MakeDataWithDetector(const OodLevelDetector& detector) {
  ServingModelData data;
  data.meta.spec.backbone = BackboneKind::kCfr;
  data.meta.framework = FrameworkKind::kVanilla;
  data.meta.method_name = "handcrafted";
  data.meta.spec.input_dim = 4;
  data.meta.spec.network.rep_layers = 1;
  data.meta.spec.network.rep_width = 3;
  data.meta.spec.network.head_layers = 1;
  data.meta.spec.network.head_width = 3;
  Rng rng(7);
  auto dense = [&](const std::string& name, int64_t in, int64_t out) {
    data.weights.push_back({name + ".W", rng.Randn(in, out)});
    data.weights.push_back({name + ".b", rng.Randn(1, out)});
  };
  dense("rep.l0", 4, 3);
  dense("heads.h0.l0", 3, 3);
  dense("heads.h1.l0", 3, 3);
  dense("heads.h0.out", 3, 1);
  dense("heads.h1.out", 3, 1);
  data.has_ood = true;
  data.ood = detector.ExportState();
  return data;
}

// Loads a served model whose detector state went through the on-disk
// format once.
ServingModel RoundTripModel(const OodLevelDetector& detector,
                            const std::string& name) {
  const std::string path = TestPath(name);
  const Status saved = SaveServingModel(MakeDataWithDetector(detector), path);
  SBRL_CHECK(saved.ok()) << saved.ToString();
  StatusOr<ServingModel> model = ServingModel::Load(path);
  SBRL_CHECK(model.ok()) << model.status().ToString();
  std::remove(path.c_str());
  return std::move(model.value());
}

TEST(ServingOodTest, ReloadedDetectorIsBitwiseIdenticalToOriginal) {
  Rng rng(2);
  const Matrix source = rng.Randn(600, 4);
  StatusOr<OodLevelDetector> detector = OodLevelDetector::Fit(source);
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "verbatim.model");
  ASSERT_TRUE(model.has_ood_detector());

  // Deterministic detectors + verbatim state => bitwise-equal levels,
  // in and far out of distribution.
  const Matrix in_dist = rng.Randn(50, 4);
  const Matrix shifted = rng.Randn(50, 4, /*mean=*/3.0, /*stddev=*/1.0);
  EXPECT_EQ(model.OodLevelOf(in_dist), detector->LevelOf(in_dist));
  EXPECT_EQ(model.OodLevelOf(shifted), detector->LevelOf(shifted));
}

TEST(ServingOodTest, BatchGatingFlagsShiftedPopulationsOnly) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "batch_gate.model");

  // Mirrors the detector's own calibration contract (extension_test):
  // a same-distribution population sits well under the 0.5 gate, a
  // +3 sigma mean shift saturates it.
  const Matrix in_dist = rng.Randn(300, 4);
  const Matrix shifted = rng.Randn(300, 4, /*mean=*/3.0, /*stddev=*/1.0);

  const ServingModel::BatchScore ok = model.Score(in_dist);
  EXPECT_LT(ok.ood_level, 0.35);
  EXPECT_FALSE(ok.ood_flagged);

  const ServingModel::BatchScore bad = model.Score(shifted);
  EXPECT_GT(bad.ood_level, 0.8);
  EXPECT_TRUE(bad.ood_flagged);
}

TEST(ServingOodTest, RowGatingSeparatesShiftedRowsFromInDistRows) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "row_gate.model");

  // Single rows go through the row-level null (a one-row population is
  // far from any source even in distribution); the calibrated null
  // must keep in-distribution rows clearly under the gate and shifted
  // rows clearly over it.
  const Matrix in_dist = rng.Randn(12, 4);
  const Matrix shifted = rng.Randn(12, 4, /*mean=*/3.0, /*stddev=*/1.0);
  ServingModel::ScoreOptions options;
  options.ood_threshold = 0.5;

  for (const ServingModel::RowScore& row : model.ScoreRows(in_dist, options)) {
    EXPECT_LT(row.ood_level, 0.25);
    EXPECT_FALSE(row.ood_flagged);
  }
  for (const ServingModel::RowScore& row : model.ScoreRows(shifted, options)) {
    EXPECT_GT(row.ood_level, 0.8);
    EXPECT_TRUE(row.ood_flagged);
  }
}

TEST(ServingOodTest, RowStampsAreInvariantToBatchComposition) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "row_invariant.model");

  // A mixed batch of in-distribution and shifted rows: each row's
  // stamp must equal the stamp it gets scored alone — the invariant
  // that makes micro-batch coalescing safe for gating.
  Matrix mixed(6, 4);
  const Matrix in_dist = rng.Randn(3, 4);
  const Matrix shifted = rng.Randn(3, 4, 3.0, 1.0);
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t i = 0; i < 3; ++i) {
      mixed(i, c) = in_dist(i, c);
      mixed(3 + i, c) = shifted(i, c);
    }
  }
  const std::vector<ServingModel::RowScore> batched = model.ScoreRows(mixed);
  Matrix row(1, 4);
  for (int64_t i = 0; i < mixed.rows(); ++i) {
    for (int64_t c = 0; c < 4; ++c) row(0, c) = mixed(i, c);
    const std::vector<ServingModel::RowScore> alone = model.ScoreRows(row);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(batched[static_cast<size_t>(i)].ood_level, alone[0].ood_level);
    EXPECT_EQ(batched[static_cast<size_t>(i)].ood_flagged,
              alone[0].ood_flagged);
  }
}

TEST(ServingOodTest, MicroBatcherStampsRowVerdicts) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "batcher_gate.model");

  MicroBatcher::Options options;
  options.ood = true;
  options.ood_threshold = 0.5;
  MicroBatcher batcher(&model, options);

  const Matrix in_dist = rng.Randn(1, 4);
  const Matrix shifted = rng.Randn(1, 4, 3.0, 1.0);
  std::vector<double> row(4);
  for (int64_t c = 0; c < 4; ++c) row[static_cast<size_t>(c)] = in_dist(0, c);
  EXPECT_FALSE(batcher.ScoreRow(row).ood_flagged);
  for (int64_t c = 0; c < 4; ++c) row[static_cast<size_t>(c)] = shifted(0, c);
  EXPECT_TRUE(batcher.ScoreRow(row).ood_flagged);
}

TEST(ServingOodTest, EstimatorExportCarriesFittedDetector) {
  // The full export path: train a real estimator, fit the detector on
  // its training covariates, export both, reload, and require the
  // served levels to be bitwise equal to the original detector's.
  SyntheticDims dims;
  dims.m_i = 3;
  dims.m_c = 3;
  dims.m_a = 3;
  dims.m_v = 1;
  SyntheticModel synthetic(dims, 501);
  const CausalDataset train = synthetic.SampleEnvironment(150, 2.5, 502);

  EstimatorConfig config;
  config.backbone = BackboneKind::kCfr;
  config.framework = FrameworkKind::kVanilla;
  config.network.rep_layers = 1;
  config.network.rep_width = 8;
  config.network.head_layers = 1;
  config.network.head_width = 8;
  config.train.iterations = 10;
  config.train.seed = 12;
  config.train.eval_every = 0;
  StatusOr<HteEstimator> estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());

  StatusOr<OodLevelDetector> detector = OodLevelDetector::Fit(train.x);
  ASSERT_TRUE(detector.ok());

  const std::string path = TestPath("export_detector.model");
  ASSERT_TRUE(ExportServingModel(*estimator, &*detector, path).ok());
  StatusOr<ServingModel> model = ServingModel::Load(path);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::remove(path.c_str());

  ASSERT_TRUE(model->has_ood_detector());
  const CausalDataset probe = synthetic.SampleEnvironment(80, -2.5, 503);
  EXPECT_EQ(model->OodLevelOf(probe.x), detector->LevelOf(probe.x));
  EXPECT_EQ(model->OodLevelOf(train.x), detector->LevelOf(train.x));
}

TEST(ServingOodTest, NoDetectorMeansNeutralStamps) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  ServingModelData data = MakeDataWithDetector(*detector);
  data.has_ood = false;
  data.ood = OodLevelDetector::State();
  StatusOr<ServingModel> model = ServingModel::FromData(std::move(data));
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->has_ood_detector());

  const Matrix shifted = rng.Randn(5, 4, 3.0, 1.0);
  const ServingModel::BatchScore batch = model->Score(shifted);
  EXPECT_EQ(batch.ood_level, 0.0);
  EXPECT_FALSE(batch.ood_flagged);
  for (const ServingModel::RowScore& row : model->ScoreRows(shifted)) {
    EXPECT_EQ(row.ood_level, 0.0);
    EXPECT_FALSE(row.ood_flagged);
  }
}

}  // namespace
}  // namespace serve
}  // namespace sbrl
