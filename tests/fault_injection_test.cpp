// Deterministic fault-injection soak (ISSUE 5 / DESIGN.md §10): with fault
// probabilities dialed up, a training job and a PEB solve must either
// complete with the recoveries recorded, or fail with a descriptive
// sdmpeb::Error — never crash, and never return a silently-poisoned result.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "core/sdm_peb_model.hpp"
#include "core/trainer.hpp"
#include "io/volume_io.hpp"
#include "peb/peb_solver.hpp"

namespace sdmpeb {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("sdmpeb_fault_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::clear();
    std::filesystem::remove_all(dir_);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST(Crc32, KnownAnswerAndIncrementalEquivalence) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32::compute("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32::compute("", 0), 0x00000000u);
  Crc32 incremental;
  incremental.update("1234", 4);
  incremental.update("56789", 5);
  EXPECT_EQ(incremental.value(), 0xCBF43926u);
}

TEST(FaultConfig, SpecParsingAndDeterminism) {
  fault::configure("grad.nan:1,io.bitflip:0", 7);
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::should_fire("grad.nan"));
  EXPECT_FALSE(fault::should_fire("io.bitflip"));   // p = 0
  EXPECT_FALSE(fault::should_fire("peb.diverge"));  // unconfigured site
  EXPECT_EQ(fault::fired_count("grad.nan"), 1u);

  // Same spec + seed -> same firing sequence.
  const auto draw_pattern = [] {
    fault::configure("x:0.5", 99);
    std::string pattern;
    for (int i = 0; i < 32; ++i)
      pattern += fault::should_fire("x") ? '1' : '0';
    return pattern;
  };
  const auto a = draw_pattern();
  const auto b = draw_pattern();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);

  EXPECT_THROW(fault::configure("missing-prob", 1), Error);
  EXPECT_THROW(fault::configure("site:notanumber", 1), Error);
  fault::clear();
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultConfig, MalformedSpecsFailLoudlyAndDisarm) {
  // A typo in a fault spec must never soften a soak test by silently
  // disabling (or clamping) a site: every malformed entry throws, and a
  // throw leaves the whole injector disarmed — including entries that
  // parsed before the bad one.
  fault::configure("good.site:1", 1);
  EXPECT_TRUE(fault::enabled());

  EXPECT_THROW(fault::configure("site:", 1), Error);  // empty probability
  EXPECT_FALSE(fault::enabled());                     // disarmed, not stale
  EXPECT_FALSE(fault::should_fire("good.site"));

  EXPECT_THROW(fault::configure(":0.5", 1), Error);        // empty site
  EXPECT_THROW(fault::configure("site:1.5", 1), Error);    // prob > 1
  EXPECT_THROW(fault::configure("site:-0.1", 1), Error);   // prob < 0
  EXPECT_THROW(fault::configure("site:nan", 1), Error);    // non-finite
  EXPECT_THROW(fault::configure("site:0.5x", 1), Error);   // trailing junk

  // Valid prefix + malformed tail: nothing from the prefix stays armed.
  EXPECT_THROW(fault::configure("good.site:0.5,bad:", 1), Error);
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fire("good.site"));

  // And a good spec still arms normally afterwards.
  fault::configure("good.site:1", 1);
  EXPECT_TRUE(fault::should_fire("good.site"));
  fault::clear();
}

TEST_F(FaultInjectionTest, TrainingSoaksThroughGradientFaults) {
  // Every ~4th sample poisons a gradient. The trainer must detect each
  // poisoned window before the optimizer touches the weights, retry /
  // skip, and still deliver a finite model.
  fault::configure("grad.nan:0.25", 2025);
  Rng model_rng(1);
  core::SdmPebModel model(core::SdmPebConfig::tiny(), model_rng);
  Rng data_rng(2);
  std::vector<core::TrainSample> data;
  for (int i = 0; i < 6; ++i) {
    Tensor acid = Tensor::uniform(Shape{2, 8, 8}, data_rng, 0.0f, 0.9f);
    Tensor label = acid.map([](float v) { return 2.0f * v - 0.5f; });
    data.push_back({acid, label});
  }
  core::TrainConfig config;
  config.epochs = 3;
  config.accumulation = 2;
  config.lr0 = 1e-2f;
  Rng train_rng(3);
  const double loss = core::train_model(model, data, config, train_rng);

  EXPECT_TRUE(std::isfinite(loss));
  for (const auto& p : model.parameters())
    for (std::int64_t i = 0; i < p->value().numel(); ++i)
      ASSERT_TRUE(std::isfinite(p->value()[i]));
  // The injector fired, and every firing was answered with a retry/skip.
  EXPECT_GT(fault::fired_count("grad.nan"), 0u);
}

TEST_F(FaultInjectionTest, PebSolveRecoversOrThrowsDescriptively) {
  fault::configure("peb.diverge:0.3", 7);
  peb::PebParams params;
  params.duration_s = 2.0;
  params.dt_s = 0.5;
  peb::PebSolver solver(params);
  Grid3 acid0(4, 8, 8, 0.5);
  try {
    const auto state = solver.run(acid0);
    // Completed: the result must be clean and the recoveries counted.
    for (const double v : state.inhibitor.data()) ASSERT_TRUE(std::isfinite(v));
    for (const double v : state.acid.data()) ASSERT_TRUE(std::isfinite(v));
    EXPECT_GT(fault::fired_count("peb.diverge"), 0u);
  } catch (const Error& e) {
    // Bounded give-up is acceptable — but it must be the descriptive
    // divergence error, not a crash or an unrelated failure.
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos);
  }
}

TEST_F(FaultInjectionTest, PebDivergenceGuardGivesUpUnderPersistentFault) {
  peb::PebParams params;
  params.duration_s = 0.5;
  params.dt_s = 0.5;
  peb::PebSolver solver(params);
  Grid3 acid0(4, 8, 8, 0.5);
  auto state = solver.initial_state(acid0);
  solver.step(state);  // unpoisoned: a pre-step state away from t = 0
  const peb::PebState before = state;
  fault::configure("peb.diverge:1", 11);
  // With p = 1 every advance() is poisoned, so even retries fail: the
  // solver must give up with the descriptive error, not loop forever.
  EXPECT_THROW(solver.step(state), Error);
  EXPECT_GT(fault::fired_count("peb.diverge"), 0u);
  // The give-up leaves the pre-step state exactly as it was.
  EXPECT_EQ(state.time_s, before.time_s);
  const auto unchanged = [](const Grid3& now, const Grid3& was) {
    return now.same_shape(was) &&
           std::memcmp(now.data().data(), was.data().data(),
                       was.data().size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(unchanged(state.acid, before.acid));
  EXPECT_TRUE(unchanged(state.base, before.base));
  EXPECT_TRUE(unchanged(state.inhibitor, before.inhibitor));
}

TEST_F(FaultInjectionTest, AtomicWriteFaultsNeverLeaveHalfFiles) {
  const auto target = path("artifact.bin");
  atomic_write_file(target, "first full version");

  // An injected write failure must throw AND leave the previous file.
  fault::configure("io.write:1", 3);
  EXPECT_THROW(atomic_write_file(target, "second version, longer payload"),
               Error);
  fault::clear();
  std::ifstream in(target, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "first full version");
  // No stray temp files either.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_))
    ++entries;
  EXPECT_EQ(entries, 1u);
}

TEST_F(FaultInjectionTest, BitflippedCheckpointIsRejectedByCrc) {
  // io.bitflip flips one payload bit on the way out; the v2 container CRC
  // must refuse to load the result.
  Grid3 grid(2, 3, 3, 0.25);
  fault::configure("io.bitflip:1", 5);
  io::save_grid(grid, path("flipped.sdmv"));
  fault::clear();
  EXPECT_THROW(io::load_grid(path("flipped.sdmv")), Error);
}

}  // namespace
}  // namespace sdmpeb
