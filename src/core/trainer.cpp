#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/timer.hpp"
#include "nn/serialize.hpp"

namespace sdmpeb::core {

namespace nnops = nn::ops;

namespace {

/// Non-finite recovery (see train_model): each retry of a poisoned window
/// scales the learning rate by kNonfiniteLrBackoff, at most
/// kMaxNonfiniteRetries times before the window is skipped.
constexpr float kNonfiniteLrBackoff = 0.5f;
constexpr std::int64_t kMaxNonfiniteRetries = 3;

/// Forward/backward one sample, accumulating its gradient and returning the
/// unscaled loss contribution. The loss tensor is checked for finiteness
/// before it is trusted.
double accumulate_sample(PebNet& model, const TrainSample& sample,
                         const TrainConfig& config, bool& finite) {
  SDMPEB_CHECK(sample.acid.rank() == 3 &&
               sample.acid.shape() == sample.label.shape());
  const auto acid = nn::constant(sample.acid.reshaped(
      Shape{1, sample.acid.dim(0), sample.acid.dim(1), sample.acid.dim(2)}));
  const auto target = nn::constant(sample.label);
  const auto pred = model.forward(acid);
  auto loss = combined_loss(pred, target, config.loss);
  // Scale so the accumulated gradient is the mean over the mini-batch.
  loss = nnops::mul_scalar(loss,
                           1.0f / static_cast<float>(config.accumulation));
  const auto loss_value = static_cast<double>(loss->value()[0]);
  finite = std::isfinite(loss_value);
  if (!finite) return 0.0;
  nn::backward(loss);
  if (fault::enabled() && fault::should_fire("grad.nan")) {
    // Poison one gradient element of the first parameter — exactly the
    // failure a hardware glitch or overflowing intermediate produces.
    Tensor& g = model.parameters().front()->grad();
    g[static_cast<std::int64_t>(
        fault::draw_index(static_cast<std::size_t>(g.numel())))] =
        std::numeric_limits<float>::quiet_NaN();
  }
  return loss_value * static_cast<double>(config.accumulation);
}

}  // namespace

double train_model(PebNet& model, std::span<const TrainSample> data,
                   const TrainConfig& config, Rng& rng) {
  SDMPEB_CHECK(!data.empty());
  SDMPEB_CHECK(config.epochs >= 1 && config.accumulation >= 1);

  nn::Adam::Options adam_options;
  adam_options.lr = config.lr0;
  adam_options.grad_clip_norm = config.grad_clip_norm;
  nn::Adam optimizer(model.parameters(), adam_options);
  const nn::StepDecaySchedule schedule(config.lr0, config.lr_step,
                                       config.lr_gamma);

  const auto n = static_cast<std::int64_t>(data.size());

  // Resume bookkeeping. A fresh run starts at (epoch 0, cursor 0) with an
  // empty order — the epoch loop shuffles on entry. A mid-epoch checkpoint
  // carries the shuffled order and the post-shuffle RNG state, so the
  // resumed run replays the exact sample sequence of the interrupted one.
  nn::TrainState state;
  std::vector<std::int64_t> order(data.size());
  std::iota(order.begin(), order.end(), std::int64_t{0});
  bool resumed_mid_epoch = false;
  if (!config.resume_from.empty()) {
    state = nn::load_train_state(config.resume_from, model, optimizer);
    rng.set_state(state.rng);
    SDMPEB_CHECK_MSG(
        state.order.empty() ||
            static_cast<std::int64_t>(state.order.size()) == n,
        config.resume_from << " was written for a dataset of "
                           << state.order.size() << " samples, not " << n);
    // The shuffle permutes `order` in place across epochs, so the resumed
    // run must start from the interrupted run's permutation — mid-epoch it
    // is replayed as-is, at an epoch boundary it seeds the next shuffle.
    if (!state.order.empty()) order = state.order;
    resumed_mid_epoch = state.sample_cursor > 0 && !state.order.empty();
  }

  const auto write_checkpoint = [&](std::int64_t epoch,
                                    std::int64_t cursor,
                                    const std::vector<std::int64_t>& order,
                                    double epoch_loss) {
    if (config.checkpoint_path.empty()) return;
    nn::TrainState snapshot = state;
    snapshot.epoch = epoch;
    snapshot.sample_cursor = cursor;
    snapshot.epoch_loss = epoch_loss;
    snapshot.order = order;
    snapshot.rng = rng.state();
    nn::save_train_state(config.checkpoint_path, model, optimizer, snapshot);
    if (obs::trace_enabled()) {
      static obs::Counter& saved = obs::counter("train.checkpoints");
      saved.add(1);
    }
  };

  const auto stop_requested = [&] {
    return config.stop_flag != nullptr &&
           config.stop_flag->load(std::memory_order_relaxed);
  };

  bool interrupted = false;
  double last_epoch_loss = state.last_epoch_loss;
  for (std::int64_t epoch = state.epoch;
       epoch < config.epochs && !interrupted; ++epoch) {
    SDMPEB_SPAN("train.epoch", "epoch", epoch);
    Timer epoch_timer;
    optimizer.set_lr(schedule.lr_at(epoch) *
                     static_cast<float>(state.lr_scale));

    double epoch_loss = 0.0;
    std::int64_t cursor = 0;
    if (resumed_mid_epoch) {
      order = state.order;
      cursor = state.sample_cursor;
      epoch_loss = state.epoch_loss;
      resumed_mid_epoch = false;
    } else {
      // Fisher–Yates shuffle driven by the caller's rng for reproducibility.
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }

    while (cursor < n) {
      const auto window_end = std::min(cursor + config.accumulation, n);
      // Retry loop for one accumulation window. Weights are only written by
      // a step() that saw finite gradients, so "the last good state" is
      // simply the current weights: recovery = drop the poisoned gradients
      // and re-run the window (with the LR backed off, in case the blow-up
      // was optimisation-driven rather than injected).
      std::int64_t attempts = 0;
      for (;;) {
        model.zero_grad();
        const double epoch_loss_base = epoch_loss;
        bool poisoned = false;
        for (std::int64_t i = cursor; i < window_end && !poisoned; ++i) {
          bool finite = false;
          const double contribution =
              accumulate_sample(model, data[static_cast<std::size_t>(
                                         order[static_cast<std::size_t>(i)])],
                                config, finite);
          if (!finite) {
            poisoned = true;
            break;
          }
          epoch_loss += contribution;
        }
        if (!poisoned) {
          if (optimizer.step()) break;  // success: window committed
          poisoned = true;              // non-finite gradient norm
        }
        // Poisoned window: restore the exact pre-window loss sum (weights
        // were never touched) and decide between retry and skip.
        epoch_loss = epoch_loss_base;
        model.zero_grad();
        if (attempts++ < kMaxNonfiniteRetries) {
          ++state.nonfinite_retries;
          obs::counter("train.nonfinite_retries").add(1);
          state.lr_scale *= kNonfiniteLrBackoff;
          optimizer.set_lr(schedule.lr_at(epoch) *
                           static_cast<float>(state.lr_scale));
          SDMPEB_LOG(obs::LogLevel::kWarn)
              << "[" << model.name() << "] non-finite loss/gradient in epoch "
              << epoch << " window at sample " << cursor << "; retry "
              << attempts << "/" << kMaxNonfiniteRetries
              << " with lr scale " << state.lr_scale;
          continue;
        }
        ++state.nonfinite_skips;
        obs::counter("train.nonfinite_skips").add(1);
        SDMPEB_LOG(obs::LogLevel::kWarn)
            << "[" << model.name() << "] skipping poisoned window at sample "
            << cursor << " of epoch " << epoch << " after " << attempts - 1
            << " retries";
        break;
      }
      cursor = window_end;

      // Step boundary: gradients are zero or committed, weights are
      // consistent — the only place checkpointing and shutdown are exact.
      if (cursor < n) {
        const bool budget_exhausted =
            config.max_steps > 0 && optimizer.step_count() >= config.max_steps;
        const bool periodic =
            config.checkpoint_every_steps > 0 &&
            optimizer.step_count() > 0 &&
            optimizer.step_count() % config.checkpoint_every_steps == 0;
        if (stop_requested() || budget_exhausted) {
          write_checkpoint(epoch, cursor, order, epoch_loss);
          interrupted = true;
          break;
        }
        if (periodic) write_checkpoint(epoch, cursor, order, epoch_loss);
      }
    }
    if (interrupted) break;

    last_epoch_loss = epoch_loss / static_cast<double>(data.size());
    state.last_epoch_loss = last_epoch_loss;
    state.epoch_losses.push_back(last_epoch_loss);
    const double epoch_s = epoch_timer.seconds();
    const double examples_per_s =
        epoch_s > 0.0 ? static_cast<double>(data.size()) / epoch_s : 0.0;
    if (obs::trace_enabled()) {
      static obs::Counter& examples = obs::counter("train.examples");
      examples.add(static_cast<std::uint64_t>(data.size()));
      static obs::Counter& epochs = obs::counter("train.epochs");
      epochs.add(1);
      obs::gauge("train.epoch_loss").set(last_epoch_loss);
      obs::gauge("train.examples_per_s").set(examples_per_s);
      if (optimizer.last_grad_norm() >= 0.0)
        obs::gauge("train.grad_norm").set(optimizer.last_grad_norm());
    }
    if (config.verbose) {
      SDMPEB_LOG(obs::LogLevel::kInfo)
          << "[" << model.name() << "] epoch " << epoch << "  loss "
          << last_epoch_loss << "  lr " << optimizer.lr() << "  ("
          << examples_per_s << " examples/s)";
    }

    // Epoch boundary poll: saves position (epoch + 1, cursor 0) so a resume
    // re-enters at the next epoch's shuffle.
    const bool budget_exhausted =
        config.max_steps > 0 && optimizer.step_count() >= config.max_steps;
    if ((stop_requested() || budget_exhausted) && epoch + 1 < config.epochs) {
      write_checkpoint(epoch + 1, 0, order, 0.0);
      interrupted = true;
    }
  }

  if (config.epoch_losses != nullptr)
    *config.epoch_losses = state.epoch_losses;
  if (config.interrupted != nullptr) *config.interrupted = interrupted;
  return last_epoch_loss;
}

Tensor predict(const PebNet& model, const Tensor& acid) {
  SDMPEB_CHECK(acid.rank() == 3);
  const auto input = nn::constant(
      acid.reshaped(Shape{1, acid.dim(0), acid.dim(1), acid.dim(2)}));
  return model.forward(input)->value();
}

}  // namespace sdmpeb::core
