#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "eval/dataset.hpp"
#include "eval/epe.hpp"
#include "eval/harness.hpp"
#include "eval/metrics.hpp"
#include "tensor/stats.hpp"

namespace sdmpeb::eval {
namespace {

/// Tiny end-to-end dataset configuration for unit tests: 32x32x4 grid and a
/// 9 s bake so the whole pipeline runs in milliseconds.
DatasetConfig tiny_config() {
  DatasetConfig config = DatasetConfig::small();
  config.mask.height = 32;
  config.mask.width = 32;
  config.mask.min_pitch_nm = 52.0;
  config.mask.min_contact_nm = 16.0;
  config.mask.max_contact_nm = 32.0;
  config.mask.margin_px = 4;
  config.aerial.resist_thickness_nm = 20.0;
  config.peb.duration_s = 9.0;
  config.peb.dt_s = 0.3;
  config.mack.develop_time_s = 20.0;
  config.clip_count = 4;
  config.train_fraction = 0.75;  // 3 train / 1 test
  return config;
}

TEST(Dataset, BuildsWithExpectedShapesAndSplit) {
  const auto dataset = build_dataset(tiny_config());
  EXPECT_EQ(dataset.train.size(), 3u);
  EXPECT_EQ(dataset.test.size(), 1u);
  for (const auto& s : dataset.train) {
    EXPECT_EQ(s.acid0.depth(), 4);
    EXPECT_EQ(s.acid0.height(), 32);
    EXPECT_EQ(s.acid0.width(), 32);
    EXPECT_TRUE(s.inhibitor_gt.same_shape(s.acid0));
    EXPECT_EQ(s.acid_tensor.shape(), Shape({4, 32, 32}));
    EXPECT_EQ(s.label_gt.shape(), Shape({4, 32, 32}));
    EXPECT_GT(s.rigorous_seconds, 0.0);
  }
}

TEST(Dataset, DeterministicForSameSeed) {
  const auto a = build_dataset(tiny_config());
  const auto b = build_dataset(tiny_config());
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i)
    for (std::size_t j = 0; j < a.train[i].inhibitor_gt.data().size(); ++j)
      EXPECT_DOUBLE_EQ(a.train[i].inhibitor_gt.data()[j],
                       b.train[i].inhibitor_gt.data()[j]);
}

TEST(Dataset, GroundTruthHasContrast) {
  const auto dataset = build_dataset(tiny_config());
  for (const auto& s : dataset.train) {
    // Deep inside contacts the inhibitor deprotects; background stays ~1.
    EXPECT_LT(s.inhibitor_gt.min(), 0.6);
    EXPECT_GT(s.inhibitor_gt.max(), 0.95);
  }
}

TEST(Dataset, InhibitorHistogramIsImbalanced) {
  // The Fig. 6(b) property that motivates the focal loss: most of the
  // volume sits in the top inhibitor bucket.
  const auto dataset = build_dataset(tiny_config());
  Histogram hist(0.0, 1.0, 10);
  for (const auto& s : dataset.train) hist.add_all(s.inhibitor_gt.data());
  const auto freq = hist.frequencies();
  EXPECT_GT(freq[9], 0.5);
  EXPECT_LT(freq[4], freq[9]);
}

TEST(Dataset, ValidationCatchesSpacingMismatch) {
  auto config = tiny_config();
  config.peb.dx_nm = 1.0;  // no longer matches mask.pixel_nm
  EXPECT_THROW(build_dataset(config), Error);
}

TEST(Dataset, ValidationCatchesDillInconsistency) {
  auto config = tiny_config();
  config.dill.acid_max = 0.5;  // != [A]_sat
  EXPECT_THROW(build_dataset(config), Error);
}

TEST(Dataset, TwoClipsSplitOneTrainOneTest) {
  // 0.75 of 2 clips rounds to 2; the split keeps one clip on each side.
  auto config = tiny_config();
  config.clip_count = 2;
  const auto dataset = build_dataset(config);
  EXPECT_EQ(dataset.train.size(), 1u);
  EXPECT_EQ(dataset.test.size(), 1u);

  config.clip_count = 1;
  EXPECT_THROW(build_dataset(config), Error);
}

TEST(Dataset, MeanRigorousSecondsPositive) {
  const auto dataset = build_dataset(tiny_config());
  EXPECT_GT(dataset.mean_rigorous_seconds(), 0.0);
}

TEST(Dataset, ToTrainSamplesPairsTensors) {
  const auto dataset = build_dataset(tiny_config());
  const auto samples = to_train_samples(dataset.train);
  ASSERT_EQ(samples.size(), dataset.train.size());
  EXPECT_EQ(samples[0].acid.shape(), samples[0].label.shape());
}

TEST(Metrics, PerfectPredictionScoresZero) {
  const auto dataset = build_dataset(tiny_config());
  const auto& s = dataset.test.front();
  const auto acc =
      accuracy_metrics(s.inhibitor_gt, s.inhibitor_gt, dataset.config.mack);
  EXPECT_DOUBLE_EQ(acc.inhibitor_rmse, 0.0);
  EXPECT_DOUBLE_EQ(acc.inhibitor_nrmse, 0.0);
  EXPECT_DOUBLE_EQ(acc.rate_rmse, 0.0);
  EXPECT_DOUBLE_EQ(acc.rate_nrmse, 0.0);
}

TEST(Metrics, PerturbedPredictionScoresPositive) {
  const auto dataset = build_dataset(tiny_config());
  const auto& s = dataset.test.front();
  Grid3 pred = s.inhibitor_gt;
  for (auto& v : pred.data()) v = std::min(1.0, v + 0.05);
  const auto acc =
      accuracy_metrics(pred, s.inhibitor_gt, dataset.config.mack);
  EXPECT_GT(acc.inhibitor_rmse, 0.0);
  EXPECT_GT(acc.inhibitor_nrmse, 0.0);
  EXPECT_LE(acc.inhibitor_rmse, 0.05 + 1e-9);
}

TEST(Metrics, CdComparisonOfIdenticalVolumesIsZero) {
  const auto dataset = build_dataset(tiny_config());
  const auto& s = dataset.test.front();
  const auto cds =
      compare_cds(s.inhibitor_gt, s.inhibitor_gt, s, dataset.config);
  EXPECT_DOUBLE_EQ(cds.cd_error_x_nm, 0.0);
  EXPECT_DOUBLE_EQ(cds.cd_error_y_nm, 0.0);
}

TEST(Metrics, CdRms) {
  EXPECT_DOUBLE_EQ(cd_rms({}), 0.0);
  EXPECT_DOUBLE_EQ(cd_rms({3.0, 4.0}), std::sqrt(12.5));
}

TEST(Metrics, CdErrorPercentagesBucketCorrectly) {
  const auto pct = cd_error_percentages({0.5, 1.5, 1.9, 2.5, 7.0});
  ASSERT_EQ(pct.size(), 5u);
  EXPECT_DOUBLE_EQ(pct[0], 20.0);
  EXPECT_DOUBLE_EQ(pct[1], 40.0);
  EXPECT_DOUBLE_EQ(pct[2], 20.0);
  EXPECT_DOUBLE_EQ(pct[3], 0.0);
  EXPECT_DOUBLE_EQ(pct[4], 20.0);
  double total = 0.0;
  for (double p : pct) total += p;
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(Metrics, CdErrorPercentagesEmptyIsAllZero) {
  for (double p : cd_error_percentages({})) EXPECT_DOUBLE_EQ(p, 0.0);
}

/// Oracle surrogate: replays the exact ground-truth label of the one test
/// clip. evaluate_model on it must report zero error — validating the whole
/// label -> inhibitor -> rate -> CD chain.
class OracleNet : public core::PebNet {
 public:
  explicit OracleNet(Tensor label) : label_(std::move(label)) {}
  nn::Value forward(const nn::Value&) const override {
    return nn::constant(label_);
  }
  std::string name() const override { return "Oracle"; }

 private:
  Tensor label_;
};

TEST(Harness, OracleModelScoresNearZero) {
  const auto dataset = build_dataset(tiny_config());
  ASSERT_EQ(dataset.test.size(), 1u);
  OracleNet oracle(dataset.test.front().label_gt);
  const auto result = evaluate_model(oracle, dataset);
  // Float label round-trip leaves only tiny residuals.
  EXPECT_LT(result.accuracy.inhibitor_rmse, 1e-4);
  EXPECT_LT(result.accuracy.inhibitor_nrmse, 1e-3);
  EXPECT_DOUBLE_EQ(result.cd_error_x_nm, 0.0);
  EXPECT_DOUBLE_EQ(result.cd_error_y_nm, 0.0);
  EXPECT_GT(result.runtime_seconds, 0.0);
}

TEST(Harness, FormatTableMentionsEveryMethod) {
  MethodResult a;
  a.name = "MethodA";
  MethodResult b;
  b.name = "MethodB";
  const auto table = format_results_table({a, b}, 12.5);
  EXPECT_NE(table.find("MethodA"), std::string::npos);
  EXPECT_NE(table.find("MethodB"), std::string::npos);
  EXPECT_NE(table.find("12.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Edge placement error
// ---------------------------------------------------------------------------

Grid3 arrival_with_hole(std::int64_t h0, std::int64_t h1, std::int64_t w0,
                        std::int64_t w1) {
  Grid3 arrival(1, 24, 24, 1000.0);
  for (std::int64_t h = h0; h <= h1; ++h)
    for (std::int64_t w = w0; w <= w1; ++w) arrival.at(0, h, w) = 1.0;
  return arrival;
}

TEST(Epe, IdenticalFrontsGiveZero) {
  const auto front = arrival_with_hole(8, 12, 8, 12);
  litho::MaskClip clip;
  clip.pixel_nm = 2.0;
  clip.pixels = Tensor(Shape{24, 24});
  clip.contacts.push_back({10, 10, 5, 5});
  const auto epes = eval::edge_placement_errors(front, front, 60.0, clip, 0);
  ASSERT_EQ(epes.size(), 1u);
  EXPECT_TRUE(epes[0].resolved);
  EXPECT_DOUBLE_EQ(epes[0].left_nm, 0.0);
  EXPECT_DOUBLE_EQ(epes[0].right_nm, 0.0);
  EXPECT_DOUBLE_EQ(eval::epe_rms_nm(epes), 0.0);
}

TEST(Epe, DetectsOneSidedShift) {
  // Prediction opens one extra column on the right: right edge moves by
  // one pixel (2 nm), the others stay put.
  const auto ref = arrival_with_hole(8, 12, 8, 12);
  const auto pred = arrival_with_hole(8, 12, 8, 13);
  litho::MaskClip clip;
  clip.pixel_nm = 2.0;
  clip.pixels = Tensor(Shape{24, 24});
  clip.contacts.push_back({10, 10, 5, 5});
  const auto epes = eval::edge_placement_errors(pred, ref, 60.0, clip, 0);
  ASSERT_EQ(epes.size(), 1u);
  EXPECT_DOUBLE_EQ(epes[0].right_nm, 2.0);
  EXPECT_DOUBLE_EQ(epes[0].left_nm, 0.0);
  EXPECT_DOUBLE_EQ(epes[0].top_nm, 0.0);
  EXPECT_DOUBLE_EQ(epes[0].bottom_nm, 0.0);
  EXPECT_NEAR(eval::epe_rms_nm(epes), 1.0, 1e-12);  // sqrt(4/4)=1
}

TEST(Epe, UnresolvedContactIsSkipped) {
  const auto ref = arrival_with_hole(8, 12, 8, 12);
  Grid3 pred(1, 24, 24, 1000.0);  // nothing opens
  litho::MaskClip clip;
  clip.pixel_nm = 2.0;
  clip.pixels = Tensor(Shape{24, 24});
  clip.contacts.push_back({10, 10, 5, 5});
  const auto epes = eval::edge_placement_errors(pred, ref, 60.0, clip, 0);
  ASSERT_EQ(epes.size(), 1u);
  EXPECT_FALSE(epes[0].resolved);
  EXPECT_DOUBLE_EQ(eval::epe_rms_nm(epes), 0.0);
}

TEST(Epe, EdgeExtentMatchesHoleGeometry) {
  const auto front = arrival_with_hole(8, 12, 6, 14);
  litho::Contact contact{10, 10, 5, 9};
  const auto edges =
      eval::locate_contact_edges(front, 60.0, contact, 0, 2.0, 2.0);
  ASSERT_TRUE(edges.resolved);
  EXPECT_DOUBLE_EQ(edges.left_nm, (6.0 - 0.5) * 2.0 + 1.0 - 1.0);  // 11
  EXPECT_DOUBLE_EQ(edges.right_nm - edges.left_nm, 9.0 * 2.0);
  EXPECT_DOUBLE_EQ(edges.bottom_nm - edges.top_nm, 5.0 * 2.0);
}

}  // namespace
}  // namespace sdmpeb::eval
