// End-to-end integration tests: the full physics pipeline feeding real
// training of the real model, at miniature scale.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "baselines/tempo_resist.hpp"
#include "core/sdm_peb_model.hpp"
#include "eval/harness.hpp"

namespace sdmpeb {
namespace {

eval::DatasetConfig integration_config() {
  auto config = eval::DatasetConfig::small();
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
  config.train_fraction = 0.75;
  return config;
}

core::SdmPebConfig integration_model_config() {
  auto config = core::SdmPebConfig::tiny();  // strides {2, 2}: 32 -> 8
  return config;
}

core::TrainConfig integration_train_config(std::int64_t epochs) {
  core::TrainConfig train;
  train.epochs = epochs;
  train.accumulation = 3;
  train.lr0 = 3e-3f;
  return train;
}

TEST(Integration, TrainingImprovesOverUntrainedModel) {
  const auto dataset = eval::build_dataset(integration_config());

  Rng rng_a(42);
  core::SdmPebModel untrained(integration_model_config(), rng_a);
  const auto before = eval::evaluate_model(untrained, dataset);

  Rng rng_b(42);
  core::SdmPebModel trained(integration_model_config(), rng_b);
  Rng train_rng(7);
  const auto after = eval::train_and_evaluate(
      trained, dataset, integration_train_config(10), train_rng);

  EXPECT_LT(after.accuracy.inhibitor_nrmse, before.accuracy.inhibitor_nrmse);
  EXPECT_LT(after.accuracy.rate_nrmse, before.accuracy.rate_nrmse);
}

TEST(Integration, SurrogateIsMuchFasterThanRigorousSolver) {
  // Use a realistic bake length (300 solver steps) so the runtime ratio is
  // meaningful even at the miniature test grid; the full-scale factor is
  // measured by bench_table2.
  auto config = integration_config();
  config.peb.duration_s = 30.0;
  config.peb.dt_s = 0.1;
  const auto dataset = eval::build_dataset(config);
  Rng rng(1);
  core::SdmPebModel model(integration_model_config(), rng);
  const auto result = eval::evaluate_model(model, dataset);
  // Even the untuned surrogate beats the rigorous solve by a wide margin —
  // the paper's headline efficiency claim (138x vs S-Litho) in miniature.
  // The threshold leaves headroom under a parallel ctest run on a small
  // host: the vectorized ADI sweeps (DESIGN.md §11) sped up the rigorous
  // baseline, which legitimately shrinks this miniature-grid ratio; the
  // full-scale factor is measured by bench_table2.
  const double ratio =
      dataset.mean_rigorous_seconds() / result.runtime_seconds;
  // Logged so a slow or noisy host's margin shows in passing runs too.
  std::printf("rigorous/surrogate runtime ratio %.2f\n", ratio);
  EXPECT_GT(ratio, 3.0);
}

TEST(Integration, TrainAndEvaluateIsDeterministic) {
  const auto dataset = eval::build_dataset(integration_config());
  const auto run_once = [&dataset]() {
    Rng rng(9);
    core::SdmPebModel model(integration_model_config(), rng);
    Rng train_rng(13);
    return eval::train_and_evaluate(model, dataset,
                                    integration_train_config(2), train_rng);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.accuracy.inhibitor_rmse, b.accuracy.inhibitor_rmse);
  EXPECT_DOUBLE_EQ(a.cd_error_x_nm, b.cd_error_x_nm);
  EXPECT_DOUBLE_EQ(a.final_train_loss, b.final_train_loss);
}

TEST(Integration, PredictionsStayInLabelRange) {
  const auto dataset = eval::build_dataset(integration_config());
  Rng rng(3);
  core::SdmPebModel model(integration_model_config(), rng);
  Rng train_rng(5);
  core::train_model(model, eval::to_train_samples(dataset.train),
                    integration_train_config(5), train_rng);
  for (const auto& sample : dataset.test) {
    const Tensor pred = core::predict(model, sample.acid_tensor);
    const Grid3 inhibitor = dataset.transform.to_inhibitor(pred);
    // The inverse label transform is a sigmoid-like map: predictions must
    // land in the physical concentration range by construction.
    EXPECT_GE(inhibitor.min(), 0.0);
    EXPECT_LE(inhibitor.max(), 1.0);
  }
}

TEST(Integration, BaselineAndCoreShareTheTrainingHarness) {
  const auto dataset = eval::build_dataset(integration_config());
  baselines::TempoResistConfig config;
  config.base_channels = 4;
  Rng rng(11);
  baselines::TempoResist model(config, rng);
  Rng train_rng(17);
  const auto result = eval::train_and_evaluate(
      model, dataset, integration_train_config(4), train_rng);
  EXPECT_EQ(result.name, "TEMPO-resist");
  EXPECT_TRUE(std::isfinite(result.accuracy.inhibitor_nrmse));
  EXPECT_GT(result.runtime_seconds, 0.0);
}

}  // namespace
}  // namespace sdmpeb
