#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/simd.hpp"
#include "core/attention.hpp"
#include "core/label_transform.hpp"
#include "core/losses.hpp"
#include "core/sdm_peb_model.hpp"
#include "core/sdm_unit.hpp"
#include "core/trainer.hpp"
#include "gradcheck.hpp"

namespace sdmpeb::core {
namespace {

namespace nnops = nn::ops;
using sdmpeb::testing::expect_gradients_match;

// ---------------------------------------------------------------------------
// Label transform
// ---------------------------------------------------------------------------

TEST(LabelTransform, RoundTripInOpenInterval) {
  const LabelTransform t;
  for (double inhibitor : {0.001, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(t.to_inhibitor(t.to_label(inhibitor)), inhibitor, 1e-9)
        << inhibitor;
  }
}

TEST(LabelTransform, ClampsDegenerateEndpoints) {
  const LabelTransform t;
  EXPECT_TRUE(std::isfinite(t.to_label(1.0)));
  EXPECT_TRUE(std::isfinite(t.to_label(0.0)));
  EXPECT_GT(t.to_label(1.0), t.to_label(0.5));  // monotone increasing
}

TEST(LabelTransform, MatchesClosedForm) {
  LabelTransform t;
  t.kc = 0.9;
  const double inhibitor = 0.3;
  EXPECT_NEAR(t.to_label(inhibitor), -std::log(-std::log(0.3) / 0.9), 1e-12);
}

TEST(LabelTransform, VolumeVersionsMatchScalar) {
  const LabelTransform t;
  Grid3 inhibitor(1, 2, 2);
  inhibitor.at(0, 0, 0) = 0.2;
  inhibitor.at(0, 0, 1) = 0.5;
  inhibitor.at(0, 1, 0) = 0.8;
  inhibitor.at(0, 1, 1) = 0.99;
  const Tensor labels = t.to_label(inhibitor);
  const Grid3 back = t.to_inhibitor(labels);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(back.data()[i], inhibitor.data()[i], 1e-5);
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(Losses, MaxSePicksWorstVoxel) {
  Tensor pred(Shape{2, 2}, 0.0f);
  Tensor target(Shape{2, 2}, 0.0f);
  pred.at(1, 1) = 3.0f;  // error 3 -> SE 9
  pred.at(0, 0) = 1.0f;  // error 1
  const auto loss =
      max_se_loss(nn::constant(pred), nn::constant(target));
  EXPECT_FLOAT_EQ(loss->value()[0], 9.0f);
}

TEST(Losses, FocalWeighsLargeErrorsSuperQuadratically) {
  Tensor target(Shape{1}, 0.0f);
  Tensor small_err(Shape{1}, 0.1f);
  Tensor big_err(Shape{1}, 0.2f);
  const float l_small =
      peb_focal_loss(nn::constant(small_err), nn::constant(target), 1.0f)
          ->value()[0];
  const float l_big =
      peb_focal_loss(nn::constant(big_err), nn::constant(target), 1.0f)
          ->value()[0];
  // gamma = 1: |e|^3, so doubling the error scales the loss by 8.
  EXPECT_NEAR(l_big / l_small, 8.0f, 1e-3);
}

TEST(Losses, FocalIsZeroAtPerfectPrediction) {
  Tensor t(Shape{3}, 0.7f);
  EXPECT_FLOAT_EQ(
      peb_focal_loss(nn::constant(t), nn::constant(t), 1.0f)->value()[0],
      0.0f);
}

TEST(Losses, DivergenceZeroWhenDifferencesMatch) {
  // Same inter-layer differences (up to a constant offset) => same softmax
  // => zero KL.
  Tensor target(Shape{3, 2, 2});
  Rng rng(1);
  for (std::int64_t i = 0; i < target.numel(); ++i)
    target[i] = static_cast<float>(rng.uniform());
  Tensor pred = target;
  pred += 0.37f;  // constant offset leaves layer differences unchanged
  const auto loss =
      depth_divergence_loss(nn::constant(pred), nn::constant(target), 0.1f);
  EXPECT_NEAR(loss->value()[0], 0.0f, 1e-5);
}

TEST(Losses, DivergenceIsNonNegativeAndDetectsMismatch) {
  Rng rng(2);
  Tensor target = Tensor::uniform(Shape{3, 2, 2}, rng);
  Tensor pred = Tensor::uniform(Shape{3, 2, 2}, rng);
  const auto loss =
      depth_divergence_loss(nn::constant(pred), nn::constant(target), 0.1f);
  EXPECT_GT(loss->value()[0], 0.0f);
}

TEST(Losses, CombinedRespectsAblationSwitches) {
  Rng rng(3);
  const Tensor target = Tensor::uniform(Shape{3, 2, 2}, rng);
  const Tensor pred = Tensor::uniform(Shape{3, 2, 2}, rng);
  LossConfig full;
  LossConfig no_focal = full;
  no_focal.use_focal = false;
  LossConfig no_div = full;
  no_div.use_divergence = false;
  LossConfig max_only = full;
  max_only.use_focal = false;
  max_only.use_divergence = false;

  const float l_full =
      combined_loss(nn::constant(pred), nn::constant(target), full)
          ->value()[0];
  const float l_nf =
      combined_loss(nn::constant(pred), nn::constant(target), no_focal)
          ->value()[0];
  const float l_nd =
      combined_loss(nn::constant(pred), nn::constant(target), no_div)
          ->value()[0];
  const float l_max =
      combined_loss(nn::constant(pred), nn::constant(target), max_only)
          ->value()[0];
  const float maxse =
      max_se_loss(nn::constant(pred), nn::constant(target))->value()[0];

  EXPECT_FLOAT_EQ(l_max, maxse);
  EXPECT_GT(l_full, l_nf);
  EXPECT_GT(l_full, l_nd);
}

TEST(Losses, GradCheckCombined) {
  Rng rng(4);
  const Tensor target = Tensor::uniform(Shape{3, 2, 2}, rng);
  expect_gradients_match(
      [&target](const std::vector<nn::Value>& v) {
        LossConfig config;
        return combined_loss(v[0], nn::constant(target), config);
      },
      {Tensor::uniform(Shape{3, 2, 2}, rng)}, 1e-2, 3e-2);
}

// ---------------------------------------------------------------------------
// SDM unit
// ---------------------------------------------------------------------------

SdmUnitConfig tiny_sdm() {
  SdmUnitConfig config;
  config.channels = 4;
  config.hidden = 8;
  config.state_dim = 3;
  return config;
}

TEST(SdmUnit, PreservesSequenceShape) {
  Rng rng(5);
  SdmUnit unit(tiny_sdm(), rng);
  auto x = nn::constant(Tensor::uniform(Shape{2 * 3 * 3, 4}, rng));
  const auto y = unit.forward(x, 2, 3, 3);
  EXPECT_EQ(y->value().shape(), x->value().shape());
}

TEST(SdmUnit, ThreeDirectionHasOneMoreBranchOfParameters) {
  Rng rng(6);
  auto config = tiny_sdm();
  SdmUnit full(config, rng);
  config.directions = ScanDirections::kDepthForwardBackward;
  SdmUnit twod(config, rng);
  EXPECT_GT(full.parameter_count(), twod.parameter_count());
}

TEST(SdmUnit, OutputDependsOnDepthOrder) {
  // Permuting the depth layers of the input must change per-position
  // outputs (the scans are depth-causal, unlike a pointwise MLP).
  Rng rng(7);
  SdmUnit unit(tiny_sdm(), rng);
  const std::int64_t depth = 3, height = 2, width = 2;
  const auto plane = height * width;
  Tensor x = Tensor::uniform(Shape{depth * plane, 4}, rng);
  Tensor x_swapped = x;
  for (std::int64_t l = 0; l < plane; ++l)
    for (std::int64_t c = 0; c < 4; ++c)
      std::swap(x_swapped.at(l, c), x_swapped.at(2 * plane + l, c));

  const auto y = unit.forward(nn::constant(x), depth, height, width);
  const auto y_swapped =
      unit.forward(nn::constant(x_swapped), depth, height, width);
  // Middle layer input is identical; its output should differ because the
  // scan state that reaches it differs.
  float diff = 0.0f;
  for (std::int64_t l = plane; l < 2 * plane; ++l)
    for (std::int64_t c = 0; c < 4; ++c)
      diff += std::abs(y->value().at(l, c) - y_swapped->value().at(l, c));
  EXPECT_GT(diff, 1e-6f);
}

TEST(SdmUnit, GradientsFlowToAllParameters) {
  Rng rng(8);
  SdmUnit unit(tiny_sdm(), rng);
  auto x = nn::constant(Tensor::uniform(Shape{2 * 2 * 2, 4}, rng));
  auto loss = nnops::sum(nnops::square(unit.forward(x, 2, 2, 2)));
  nn::backward(loss);
  int with_grad = 0;
  for (const auto& p : unit.parameters())
    if (p->has_grad() && p->grad().abs_max() > 0.0f) ++with_grad;
  // All but possibly a couple of bias-like parameters receive gradient.
  EXPECT_GT(with_grad, static_cast<int>(unit.parameters().size()) * 3 / 4);
}

// ---------------------------------------------------------------------------
// Efficient spatial self-attention
// ---------------------------------------------------------------------------

TEST(Attention, PreservesShape) {
  Rng rng(9);
  EfficientSpatialSelfAttention attn(6, 2, 2, rng);
  auto x = nn::constant(Tensor::uniform(Shape{2 * 2 * 4, 6}, rng));
  const auto y = attn.forward(x, 2, 2, 4);
  EXPECT_EQ(y->value().shape(), x->value().shape());
}

TEST(Attention, DepthSlicesAreIndependent) {
  // Changing depth slice 1 must not affect slice 0's output (attention is
  // per-slice; cross-depth mixing is the SDM unit's job).
  Rng rng(10);
  EfficientSpatialSelfAttention attn(4, 1, 1, rng);
  Tensor x = Tensor::uniform(Shape{2 * 4, 4}, rng);
  Tensor x2 = x;
  for (std::int64_t l = 4; l < 8; ++l)
    for (std::int64_t c = 0; c < 4; ++c) x2.at(l, c) += 1.0f;
  const auto y = attn.forward(nn::constant(x), 2, 2, 2);
  const auto y2 = attn.forward(nn::constant(x2), 2, 2, 2);
  for (std::int64_t l = 0; l < 4; ++l)
    for (std::int64_t c = 0; c < 4; ++c)
      EXPECT_FLOAT_EQ(y->value().at(l, c), y2->value().at(l, c));
}

TEST(Attention, BatchedSlicesMatchSingleSliceCalls) {
  // The projections run once over all D slices; each slice's rows must
  // equal a call on that slice alone, bit for bit, with and without the
  // key/value reduction, with two heads, on each kernel backend.
  const simd::Isa isa = simd::active();
  std::vector<simd::Isa> backends = {simd::Isa::kScalar};
  if (simd::cpu_has_avx2()) backends.push_back(simd::Isa::kAvx2);
  Rng rng(14);
  for (const simd::Isa backend : backends)
    for (const std::int64_t reduction : {2, 1}) {
      simd::set_active(backend);
      EfficientSpatialSelfAttention attn(6, 2, reduction, rng);
      constexpr std::int64_t kDepth = 3, kHeight = 2, kWidth = 4;
      constexpr std::int64_t kRows = kHeight * kWidth;
      const auto x =
          nn::constant(Tensor::uniform(Shape{kDepth * kRows, 6}, rng));
      const Tensor y = attn.forward(x, kDepth, kHeight, kWidth)->value();
      for (std::int64_t d = 0; d < kDepth; ++d) {
        const Tensor yd = attn.forward(nnops::narrow_rows(x, d * kRows, kRows),
                                       1, kHeight, kWidth)
                              ->value();
        EXPECT_EQ(std::memcmp(yd.raw(), y.raw() + d * kRows * 6,
                              sizeof(float) * kRows * 6),
                  0)
            << simd::isa_name(backend) << " r=" << reduction << " slice "
            << d;
      }
    }
  simd::set_active(isa);
}

TEST(Attention, RejectsIndivisibleReduction) {
  Rng rng(11);
  EfficientSpatialSelfAttention attn(4, 1, 3, rng);  // r = 3 won't divide 4
  auto x = nn::constant(Tensor::uniform(Shape{4, 4}, rng));
  EXPECT_THROW(attn.forward(x, 1, 2, 2), Error);
}

// ---------------------------------------------------------------------------
// Full model
// ---------------------------------------------------------------------------

TEST(SdmPebModel, TinyForwardShapeAndFiniteness) {
  Rng rng(12);
  SdmPebModel model(SdmPebConfig::tiny(), rng);
  auto acid = nn::constant(Tensor::uniform(Shape{1, 4, 16, 16}, rng));
  const auto y = model.forward(acid);
  EXPECT_EQ(y->value().shape(), Shape({4, 16, 16}));
  for (std::int64_t i = 0; i < y->value().numel(); ++i)
    EXPECT_TRUE(std::isfinite(y->value()[i]));
}

TEST(SdmPebModel, PaperScaleConfigValidates) {
  EXPECT_NO_THROW(SdmPebConfig::paper_scale().validate());
  const auto config = SdmPebConfig::paper_scale();
  EXPECT_EQ(config.stage_channels,
            (std::vector<std::int64_t>{64, 128, 320, 512}));
  EXPECT_EQ(config.patch_strides, (std::vector<std::int64_t>{8, 2, 2, 2}));
  EXPECT_EQ(config.attn_reductions, (std::vector<std::int64_t>{64, 16, 4, 1}));
  EXPECT_EQ(config.fusion_dim, 768);
}

TEST(SdmPebModel, SingleStageAblationHasFewerParameters) {
  Rng rng(13);
  auto config = SdmPebConfig::tiny();
  SdmPebModel full(config, rng);
  config.single_stage = true;
  SdmPebModel single(config, rng);
  // Same encoder params, smaller fusion input: strictly fewer weights.
  EXPECT_LT(single.parameter_count(), full.parameter_count());
}

TEST(SdmPebModel, RejectsBadConfigs) {
  Rng rng(14);
  auto config = SdmPebConfig::tiny();
  config.patch_strides[0] = 3;  // not a power of two
  EXPECT_THROW(SdmPebModel(config, rng), Error);
  auto config2 = SdmPebConfig::tiny();
  config2.attn_heads[0] = 3;  // does not divide channels = 8
  EXPECT_THROW(SdmPebModel(config2, rng), Error);
}

TEST(SdmPebModel, BackwardReachesFirstStage) {
  Rng rng(15);
  SdmPebModel model(SdmPebConfig::tiny(), rng);
  auto acid = nn::constant(Tensor::uniform(Shape{1, 2, 8, 8}, rng));
  auto loss = nnops::mean(nnops::square(model.forward(acid)));
  nn::backward(loss);
  int with_grad = 0;
  for (const auto& p : model.parameters())
    if (p->has_grad() && p->grad().abs_max() > 0.0f) ++with_grad;
  EXPECT_GT(with_grad, static_cast<int>(model.parameters().size()) / 2);
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

TEST(Trainer, LossDecreasesOnTinyProblem) {
  Rng rng(16);
  SdmPebModel model(SdmPebConfig::tiny(), rng);

  // Synthetic task: label = scaled smooth function of the acid volume.
  std::vector<TrainSample> data;
  for (int i = 0; i < 2; ++i) {
    Tensor acid = Tensor::uniform(Shape{2, 8, 8}, rng, 0.0f, 0.9f);
    Tensor label = acid.map([](float v) { return 2.0f * v - 0.5f; });
    data.push_back({acid, label});
  }

  TrainConfig first;
  first.epochs = 1;
  first.accumulation = 2;
  first.lr0 = 1e-2f;
  Rng train_rng(17);
  const double loss_first = train_model(model, data, first, train_rng);

  TrainConfig more = first;
  more.epochs = 15;
  const double loss_later = train_model(model, data, more, train_rng);
  EXPECT_LT(loss_later, loss_first);
}

TEST(Trainer, PredictMatchesManualForward) {
  Rng rng(18);
  SdmPebModel model(SdmPebConfig::tiny(), rng);
  const Tensor acid = Tensor::uniform(Shape{2, 8, 8}, rng);
  const Tensor via_predict = predict(model, acid);
  const auto manual =
      model.forward(nn::constant(acid.reshaped(Shape{1, 2, 8, 8})));
  for (std::int64_t i = 0; i < via_predict.numel(); ++i)
    EXPECT_FLOAT_EQ(via_predict[i], manual->value()[i]);
}

}  // namespace
}  // namespace sdmpeb::core
