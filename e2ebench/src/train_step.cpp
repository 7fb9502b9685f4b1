// train_step: closed loop of core::train_model calls. Each call trains
// kEpochsPerCall epochs over the training clips at accumulation 1 with the
// bench recipe (Adam, lr 2e-3, clip norm 1, step decay 12 / 0.6), so it
// runs kEpochsPerCall x kTrainClips optimizer steps; a sample is the call's
// time divided by its steps. Building the optimizer and the schedule is
// part of the call, spread over those steps. The model trains across calls;
// the Adam moments restart with each. Labels come from a rigorous PEB solve
// of each clip (eval::build_dataset) during set-up.
//
// Clips are 16x32x32: a step there takes 0.2-0.25 s, so one call takes
// about 3 s and one run holds about ten calls.
//
// The traced run also drives a few steps by hand (forward, combined loss,
// backward, Adam step) to split one step into its phases.

#include <cmath>
#include <memory>

#include "bench.hpp"
#include "common/error.hpp"
#include "core/sdm_peb_model.hpp"
#include "core/trainer.hpp"

namespace sdmpeb::e2e {

namespace {

constexpr std::int64_t kSize = 32;
constexpr std::int64_t kTrainClips = 4;
/// Label bake; shorter than Table I's 90 s to keep set-up small — the
/// labels only need to be learnable, the step cost does not depend on them.
constexpr double kLabelBakeSeconds = 10.0;
constexpr std::int64_t kEpochsPerCall = 3;
constexpr int kHandSteps = 6;

core::TrainConfig step_config(std::vector<double>* epoch_losses) {
  core::TrainConfig config;
  config.epochs = kEpochsPerCall;
  config.accumulation = 1;
  config.lr0 = 2e-3f;
  config.grad_clip_norm = 1.0f;
  config.lr_step = 12;
  config.lr_gamma = 0.6f;
  config.epoch_losses = epoch_losses;
  return config;
}

void run_hand_steps(core::PebNet& model,
                    const std::vector<core::TrainSample>& samples,
                    Report& report) {
  const auto config = step_config(nullptr);
  nn::Adam::Options adam;
  adam.lr = config.lr0;
  adam.grad_clip_norm = config.grad_clip_norm;
  nn::Adam optimizer(model.parameters(), adam);

  std::vector<double> forward, loss_ms, backward, step;
  bool finite = true;
  for (int k = 0; k < kHandSteps; ++k) {
    const auto& sample = samples[static_cast<std::size_t>(k) % samples.size()];
    const auto& a = sample.acid;
    const auto acid = nn::constant(
        a.reshaped(Shape{1, a.dim(0), a.dim(1), a.dim(2)}));
    const auto target = nn::constant(sample.label);
    nn::Value pred, loss;
    const std::uint64_t t0 = obs::now_ns();
    {
      SDMPEB_SPAN("train.forward");
      pred = model.forward(acid);
    }
    const std::uint64_t t1 = obs::now_ns();
    {
      SDMPEB_SPAN("train.loss");
      loss = core::combined_loss(pred, target, config.loss);
    }
    const std::uint64_t t2 = obs::now_ns();
    {
      SDMPEB_SPAN("train.backward");
      nn::backward(loss);
    }
    const std::uint64_t t3 = obs::now_ns();
    {
      SDMPEB_SPAN("train.optimizer");
      finite = optimizer.step() && finite;
      model.zero_grad();
    }
    const std::uint64_t t4 = obs::now_ns();
    forward.push_back(ms_between(t0, t1));
    loss_ms.push_back(ms_between(t1, t2));
    backward.push_back(ms_between(t2, t3));
    step.push_back(ms_between(t3, t4));
  }
  report.check(finite, "hand-driven steps see finite gradients");
  report.layer("train.forward.ms", median(forward), "ms");
  report.layer("train.loss.ms", median(loss_ms), "ms");
  report.layer("train.backward.ms", median(backward), "ms");
  report.layer("train.optimizer.ms", median(step), "ms");
  report.layer("train.backward_over_forward",
               median(backward) / median(forward), "ratio");
}

}  // namespace

void run_train_step(const Options& options, Report& report) {
  struct Setup {
    std::vector<core::TrainSample> samples;
    std::unique_ptr<core::SdmPebModel> model;
  };
  Setup setup = repeated_setup(report, [&] {
    auto data = eval::DatasetConfig::small();
    data.mask.height = kSize;
    data.mask.width = kSize;
    data.clip_count = kTrainClips + 1;  // build_dataset keeps one test clip
    data.train_fraction =
        static_cast<double>(kTrainClips) / static_cast<double>(kTrainClips + 1);
    data.peb.duration_s = kLabelBakeSeconds;
    data.seed = options.seed;
    Setup s;
    s.samples = eval::to_train_samples(eval::build_dataset(data).train);
    Rng rng(options.seed);
    s.model = std::make_unique<core::SdmPebModel>(
        core::SdmPebConfig::default_scale(), rng);
    return s;
  });
  const auto clips = setup.samples.size();
  SDMPEB_CHECK_MSG(clips == static_cast<std::size_t>(kTrainClips),
                   "label build gave " << clips << " training clips");

  Rng shuffle_rng(options.seed);
  const auto steps = static_cast<std::int64_t>(clips) * kEpochsPerCall;
  std::vector<double> latencies;  ///< per step, one sample per call
  std::vector<double> losses;     ///< every epoch's mean loss, in order
  SpanTally tally;
  double busy_ms = 0.0;
  while (busy_ms < options.seconds * 1e3 || latencies.empty()) {
    std::vector<double> epoch_losses;
    const auto config = step_config(&epoch_losses);
    if (options.trace) SpanTally::begin_window();
    const std::uint64_t t0 = obs::now_ns();
    core::train_model(*setup.model, setup.samples, config, shuffle_rng);
    const double ms = ms_between(t0, obs::now_ns());
    if (options.trace) tally.end_window(report, "main");
    latencies.push_back(ms / static_cast<double>(steps));
    busy_ms += ms;
    report.attempted += steps;
    epoch_losses.resize(kEpochsPerCall, NAN);
    for (const double loss : epoch_losses) {
      if (!std::isfinite(loss))
        report.failed += static_cast<std::int64_t>(clips);
      losses.push_back(loss);
    }
  }
  report.check(report.failed == 0, "every epoch loss is finite");
  report.check(losses.back() < losses.front(),
               "the last epoch's mean loss is below the first's");
  report.info("train.epochs", static_cast<double>(losses.size()));
  report.info("train.first_epoch_loss", losses.front());
  report.info("train.last_epoch_loss", losses.back());

  add_closed_loop_metrics(report, latencies);
  if (options.trace) {
    add_kernel_metrics(report, tally, report.attempted, busy_ms);
    run_hand_steps(*setup.model, setup.samples, report);
  }
}

}  // namespace sdmpeb::e2e
