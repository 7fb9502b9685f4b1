#pragma once

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "core/losses.hpp"
#include "core/peb_net.hpp"
#include "nn/optim.hpp"

namespace sdmpeb::core {

/// One training example: the initial photoacid volume and the label-space
/// target Y (both (D, H, W)).
struct TrainSample {
  Tensor acid;
  Tensor label;
};

/// Training hyper-parameters. The defaults mirror the paper's recipe scaled
/// to CPU budgets: Adam + step-decay LR + gradient accumulation over
/// `accumulation` clips before each update (the paper accumulates 8).
struct TrainConfig {
  std::int64_t epochs = 20;
  std::int64_t accumulation = 4;
  float lr0 = 3e-3f;
  std::int64_t lr_step = 100;
  float lr_gamma = 0.7f;
  float grad_clip_norm = 1.0f;
  LossConfig loss;
  bool verbose = false;

  // --- fault tolerance (DESIGN.md §10) -----------------------------------
  /// Durable TrainState checkpoint destination; empty disables
  /// checkpointing entirely.
  std::string checkpoint_path;
  /// Write the checkpoint every N optimizer steps (0 = only on shutdown /
  /// max_steps). Checkpoints land at step boundaries, where gradients are
  /// zero and resume is exact.
  std::int64_t checkpoint_every_steps = 0;
  /// Resume from a TrainState checkpoint written by a previous run; the
  /// continued run is bitwise identical to the uninterrupted one. Empty
  /// starts fresh.
  std::string resume_from;
  /// Stop after this many total optimizer steps (0 = unlimited), writing a
  /// final checkpoint first. Used by resume tests and budgeted runs.
  std::int64_t max_steps = 0;
  /// Graceful-shutdown request (e.g. set by a SIGINT/SIGTERM handler);
  /// polled at step boundaries. On observation the trainer writes a final
  /// checkpoint and returns early.
  const std::atomic<bool>* stop_flag = nullptr;

  // --- optional outputs ---------------------------------------------------
  /// When set, receives the mean loss of every completed epoch.
  std::vector<double>* epoch_losses = nullptr;
  /// When set, receives true if the run was interrupted (stop_flag or
  /// max_steps) before finishing all epochs.
  bool* interrupted = nullptr;
};

/// Train a surrogate in place; returns the average loss of the last epoch.
/// Deterministic for a fixed rng state (it drives the per-epoch shuffle).
/// With checkpointing configured, the run can be killed at any step
/// boundary and resumed bit-exactly via TrainConfig::resume_from.
///
/// When a loss or gradient goes non-finite, the poisoned accumulation
/// window is abandoned (weights were never touched: non-finite updates are
/// rejected before application) and retried with the learning rate halved,
/// up to 3 times; after that the window is skipped for good and training
/// moves on. Retries and skips are recorded in the metrics registry
/// ("train.nonfinite_retries", "train.nonfinite_skips").
double train_model(PebNet& model, std::span<const TrainSample> data,
                   const TrainConfig& config, Rng& rng);

/// Run inference only: (D, H, W) acid volume -> (D, H, W) label prediction.
Tensor predict(const PebNet& model, const Tensor& acid);

}  // namespace sdmpeb::core
