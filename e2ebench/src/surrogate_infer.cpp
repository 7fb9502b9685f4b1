// surrogate_infer: closed loop, one client. Each operation is one
// serve::FrozenModel("sdm", kDefault)::infer on a distinct 16x64x64 acid
// volume — the paper's per-clip SDM-PEB inference (Table II RT column).
//
// The traced run also replays SdmPebModel::forward layer by layer from
// public modules (stem, encoder stages, fusion, decoder, head), times each
// stage's SDM unit and attention on their own at that stage's shape, and
// calls nn::ops::selective_scan directly at the stage-0 shape.

#include <cmath>
#include <map>
#include <memory>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/sdm_peb_model.hpp"
#include "nn/serialize.hpp"
#include "serve/frozen_model.hpp"

namespace sdmpeb::e2e {

namespace {

namespace nnops = nn::ops;

constexpr std::int64_t kDepth = 16;
constexpr std::int64_t kSize = 64;
/// Inputs generated during set-up; later operations generate theirs
/// between timed windows, so no input ever repeats.
constexpr std::size_t kPool = 32;
/// The determinism check recomputes the first two clips.
constexpr std::size_t kMinOps = 2;
static_assert(kPool >= kMinOps);
/// Counted replay passes (even, so each order runs as often).
constexpr int kReplayPasses = 10;

bool all_finite(const Tensor& t) {
  for (const float v : t.data())
    if (!std::isfinite(v)) return false;
  return true;
}

void freeze(const nn::Module& module) {
  for (const auto& p : module.parameters()) p->set_requires_grad(false);
}

/// One replay pass's time per part, in ms.
using Parts = std::map<std::string, double>;

/// SdmPebModel::forward rebuilt from public modules. Construction follows
/// the model's own order, so from the same Rng state the weights (and the
/// output) match the model's; standalone SDM units and attention blocks are
/// drawn afterwards.
class Replay {
 public:
  Replay(const core::SdmPebConfig& config, Rng& rng)
      : config_(config),
        stem_(1, config.stem_kernel, config.stem_kernel / 2, rng) {
    std::int64_t in_channels = 1;
    std::int64_t fused_channels = 0;
    for (std::size_t i = 0; i < config.stage_count(); ++i) {
      core::EncoderStageConfig stage;
      stage.in_channels = in_channels;
      stage.out_channels = config.stage_channels[i];
      stage.patch_kernel = config.patch_kernels[i];
      stage.patch_stride = config.patch_strides[i];
      stage.attn_heads = config.attn_heads[i];
      stage.attn_reduction = config.attn_reductions[i];
      stage.mlp_ratio = config.mlp_ratio;
      stage.sdm_state_dim = config.sdm_state_dim;
      stage.scan_directions = config.scan_directions;
      stages_.push_back(std::make_unique<core::EncoderStage>(stage, rng));
      in_channels = stage.out_channels;
      fused_channels += stage.out_channels;
    }
    fusion_ = std::make_unique<nn::Mlp>(fused_channels, config.fusion_dim,
                                        config.fusion_dim, rng);
    // Decoder: the stage-1 stride as power-of-two transpose-conv strides,
    // padded with identity layers to three.
    std::vector<std::int64_t> strides;
    for (auto s = config.patch_strides[0]; s > 1; s /= 2)
      strides.push_back(2);
    while (strides.size() < 3) strides.push_back(1);
    std::int64_t channels = config.fusion_dim;
    for (const auto stride : strides) {
      const auto out_channels = std::max<std::int64_t>(channels / 2, 4);
      decoder_.push_back(std::make_unique<nn::ConvTranspose2dPerDepth>(
          channels, out_channels, stride == 2 ? 4 : 3, stride, 1, rng));
      channels = out_channels;
    }
    head_ = std::make_unique<nn::Conv2dPerDepth>(channels, 1, 3, 1, 1, rng);

    // Stand-alone blocks at each stage's shape; the SDM width follows
    // EncoderStage (hidden = 2 x channels).
    for (std::size_t i = 0; i < config.stage_count(); ++i) {
      core::SdmUnitConfig sdm;
      sdm.channels = config.stage_channels[i];
      sdm.hidden = 2 * config.stage_channels[i];
      sdm.state_dim = config.sdm_state_dim;
      sdm.directions = config.scan_directions;
      sdm_.push_back(std::make_unique<core::SdmUnit>(sdm, rng));
      attention_.push_back(
          std::make_unique<core::EfficientSpatialSelfAttention>(
              config.stage_channels[i], config.attn_heads[i],
              config.attn_reductions[i], rng));
    }

    freeze(stem_);
    for (const auto& s : stages_) freeze(*s);
    freeze(*fusion_);
    for (const auto& d : decoder_) freeze(*d);
    freeze(*head_);
    for (const auto& s : sdm_) freeze(*s);
    for (const auto& a : attention_) freeze(*a);
  }

  /// One forward of `acid` (D, H, W), recording each part's time.
  Tensor forward(const Tensor& acid, Parts& parts) const {
    const auto depth = acid.dim(0);
    const auto height = acid.dim(1);
    const auto width = acid.dim(2);
    auto x = nn::constant(acid.reshaped(Shape{1, depth, height, width}));
    std::uint64_t t = obs::now_ns();
    const auto lap = [&](const std::string& key) {
      const std::uint64_t now = obs::now_ns();
      parts[key] = ms_between(t, now);
      t = now;
    };

    {
      SDMPEB_SPAN("replay.stem");
      x = stem_.forward(x);
    }
    lap("core.stem.ms");
    std::vector<nn::Value> features;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      {
        SDMPEB_SPAN("replay.stage", "stage", static_cast<std::int64_t>(i));
        x = stages_[i]->forward(x);
      }
      features.push_back(x);
      lap("core.stage" + std::to_string(i) + ".ms");
    }

    nn::Value decoded;
    {
      SDMPEB_SPAN("replay.fusion");
      const auto base_height = features.front()->value().dim(2);
      const auto base_width = features.front()->value().dim(3);
      std::vector<nn::Value> pyramid;
      for (const auto& f : features) {
        const auto factor = base_height / f->value().dim(2);
        pyramid.push_back(
            factor == 1 ? f : nnops::upsample_nearest_per_depth(f, factor));
      }
      auto seq = nnops::to_sequence(nnops::concat_channels(pyramid));
      seq = fusion_->forward(seq);
      decoded = nnops::to_feature(seq, config_.fusion_dim, depth, base_height,
                                  base_width);
    }
    lap("core.fusion.ms");
    {
      SDMPEB_SPAN("replay.decoder");
      for (std::size_t i = 0; i < decoder_.size(); ++i) {
        decoded = decoder_[i]->forward(decoded);
        if (i + 1 < decoder_.size())
          decoded = nnops::leaky_relu(decoded, 0.1f);
      }
    }
    lap("core.decoder.ms");
    nn::Value out;
    {
      SDMPEB_SPAN("replay.head");
      out = nnops::reshape(head_->forward(decoded),
                           Shape{depth, height, width});
    }
    lap("core.head.ms");
    return out->value();
  }

  /// Time stage i's SDM unit and attention on their own, on a
  /// normalised-looking (D*h*w, C) sequence at that stage's shape.
  void blocks(std::size_t i, const nn::Value& seq, std::int64_t depth,
              std::int64_t side, Parts& parts) const {
    const std::string prefix = "core.stage" + std::to_string(i);
    std::uint64_t t0 = obs::now_ns();
    {
      SDMPEB_SPAN("replay.sdm", "stage", static_cast<std::int64_t>(i));
      (void)sdm_[i]->forward(seq, depth, side, side);
    }
    std::uint64_t t1 = obs::now_ns();
    parts[prefix + ".sdm.ms"] = ms_between(t0, t1);
    {
      SDMPEB_SPAN("replay.attention", "stage", static_cast<std::int64_t>(i));
      (void)attention_[i]->forward(seq, depth, side, side);
    }
    parts[prefix + ".attention.ms"] = ms_between(t1, obs::now_ns());
  }

 private:
  core::SdmPebConfig config_;
  nn::DWConv3d stem_;
  std::vector<std::unique_ptr<core::EncoderStage>> stages_;
  std::unique_ptr<nn::Mlp> fusion_;
  std::vector<std::unique_ptr<nn::ConvTranspose2dPerDepth>> decoder_;
  std::unique_ptr<nn::Conv2dPerDepth> head_;
  std::vector<std::unique_ptr<core::SdmUnit>> sdm_;
  std::vector<std::unique_ptr<core::EfficientSpatialSelfAttention>>
      attention_;
};

void run_replay(const Options& options, const std::vector<Tensor>& inputs,
                const serve::FrozenModel& model, Report& report) {
  const auto config = core::SdmPebConfig::default_scale();
  Rng rng(options.seed);
  const Replay replay(config, rng);

  // Stand-alone inputs: a normalised-looking sequence per stage, and the
  // selective scan at the stage-0 SDM shape (L, 2 C0) with N states, its
  // step sizes positive as the branch's are.
  Rng data_rng(options.seed + 1);
  std::vector<nn::Value> stage_seq;
  std::vector<std::int64_t> stage_side;
  for (std::size_t i = 0; i < config.stage_count(); ++i) {
    const auto side = kSize / config.cumulative_stride(i);
    stage_side.push_back(side);
    stage_seq.push_back(nn::constant(Tensor::normal(
        Shape{kDepth * side * side, config.stage_channels[i]}, data_rng)));
  }
  const auto length = kDepth * stage_side[0] * stage_side[0];
  const auto hidden = 2 * config.stage_channels[0];
  const auto states = config.sdm_state_dim;
  Tensor a_log(Shape{hidden, states});
  for (std::int64_t c = 0; c < hidden; ++c)
    for (std::int64_t n = 0; n < states; ++n)
      a_log.at(c, n) = std::log(static_cast<float>(n + 1));
  const auto x = nn::constant(Tensor::normal(Shape{length, hidden}, data_rng));
  const auto delta = nn::constant(
      Tensor::uniform(Shape{length, hidden}, data_rng, 0.05f, 0.3f));
  const auto b = nn::constant(Tensor::normal(Shape{length, states}, data_rng));
  const auto c = nn::constant(Tensor::normal(Shape{length, states}, data_rng));
  const auto a = nn::constant(std::move(a_log));
  const auto skip = nn::constant(Tensor::full(Shape{hidden}, 1.0f));

  // Every pass times the model's own forward (the base of the shares), the
  // replay and the stand-alone blocks back to back, so the host's speed
  // drifts alike for all of them; the model and the replay take turns going
  // first. The first pass warms the replay's own workspace and is not
  // counted.
  std::map<std::string, std::vector<double>> parts;  ///< per pass
  std::vector<double> base_ms, coverage, sdm_share;
  const std::vector<std::string> replayed = [&] {
    std::vector<std::string> keys = {"core.stem.ms", "core.fusion.ms",
                                     "core.decoder.ms", "core.head.ms"};
    for (std::size_t i = 0; i < config.stage_count(); ++i)
      keys.push_back("core.stage" + std::to_string(i) + ".ms");
    return keys;
  }();
  bool matches = true;
  for (int pass = 0; pass <= kReplayPasses; ++pass) {
    Parts pass_parts;
    const Tensor& input = inputs[static_cast<std::size_t>(pass) % kPool];
    const bool replay_first = pass % 2 == 1;
    Tensor got;
    if (replay_first) got = replay.forward(input, pass_parts);
    const std::uint64_t t0 = obs::now_ns();
    const Tensor expected = model.infer(input);
    const double base = ms_between(t0, obs::now_ns());
    if (!replay_first) got = replay.forward(input, pass_parts);
    matches = matches && bitwise_equal(got, expected);
    for (std::size_t i = 0; i < config.stage_count(); ++i)
      replay.blocks(i, stage_seq[i], kDepth, stage_side[i], pass_parts);
    const std::uint64_t t1 = obs::now_ns();
    {
      SDMPEB_SPAN("replay.selective_scan");
      (void)nnops::selective_scan(x, delta, a, b, c, skip);
    }
    pass_parts["nn.selective_scan.stage0.ms"] = ms_between(t1, obs::now_ns());
    if (pass == 0) continue;

    // Shares are taken within a pass, then the median over passes.
    double replayed_ms = 0.0;
    for (const auto& key : replayed) replayed_ms += pass_parts.at(key);
    double sdm_ms = 0.0;
    for (std::size_t i = 0; i < config.stage_count(); ++i)
      sdm_ms += pass_parts.at("core.stage" + std::to_string(i) + ".sdm.ms");
    base_ms.push_back(base);
    coverage.push_back(replayed_ms / base);
    sdm_share.push_back(sdm_ms / base);
    for (const auto& [key, ms] : pass_parts) parts[key].push_back(ms);
  }

  for (const auto& [key, ms] : parts) report.layer(key, median(ms), "ms");
  const double replay_coverage = median(coverage);
  report.layer("core.sdm_share", median(sdm_share), "ratio");
  report.layer("core.replay_coverage", replay_coverage, "ratio");
  report.info("replay.base_forward_ms", median(base_ms));
  report.check(matches,
               "the layer replay reproduces SdmPebModel::forward bitwise");
  report.check(replay_coverage >= 0.9 && replay_coverage <= 1.1,
               "core.replay_coverage within [0.9, 1.1]");
}

}  // namespace

void run_surrogate_infer(const Options& options, Report& report) {
  struct Setup {
    std::unique_ptr<AcidStream> stream;
    std::vector<Tensor> inputs;
    std::unique_ptr<serve::FrozenModel> model;
  };
  const std::string ckpt = options.out_dir + "/surrogate_infer.ckpt";
  Setup setup = repeated_setup(report, [&] {
    Setup s;
    s.stream = std::make_unique<AcidStream>(options.seed, kSize, kSize);
    for (std::size_t i = 0; i < kPool; ++i)
      s.inputs.push_back(s.stream->next().to_tensor());
    Rng rng(options.seed);
    const auto net =
        serve::make_peb_net("sdm", serve::ModelScale::kDefault, rng);
    nn::save_parameters(*net, ckpt);
    s.model = std::make_unique<serve::FrozenModel>(
        "sdm", serve::ModelScale::kDefault, ckpt,
        Shape{kDepth, kSize, kSize});
    return s;
  });

  std::vector<double> latencies;
  std::vector<Tensor> first_outputs;
  SpanTally tally;
  double busy_ms = 0.0;
  for (std::size_t i = 0; busy_ms < options.seconds * 1e3 || i < kMinOps;
       ++i) {
    // Beyond the pool, inputs are made here and dropped after use, so the
    // run's memory does not grow with the number of operations.
    const Tensor input = i < setup.inputs.size()
                             ? setup.inputs[i]
                             : setup.stream->next().to_tensor();
    if (options.trace) SpanTally::begin_window();
    const std::uint64_t t0 = obs::now_ns();
    Tensor out = setup.model->infer(input);
    const double ms = ms_between(t0, obs::now_ns());
    if (options.trace) tally.end_window(report, "main");
    latencies.push_back(ms);
    busy_ms += ms;
    ++report.attempted;
    if (!all_finite(out)) ++report.failed;
    if (i < kMinOps) first_outputs.push_back(std::move(out));
  }
  report.check(report.failed == 0, "every inference output is finite");

  // Determinism contract: outputs are bitwise identical at any pool width.
  parallel::set_thread_count(1);
  bool same = true;
  for (std::size_t i = 0; i < kMinOps; ++i)
    same = same &&
           bitwise_equal(first_outputs[i], setup.model->infer(setup.inputs[i]));
  parallel::set_thread_count(kPoolWidth);
  report.check(same, "first two clips bitwise equal at pool width 1");

  add_closed_loop_metrics(report, latencies);
  if (options.trace) {
    add_kernel_metrics(report, tally, report.attempted, busy_ms);
    run_replay(options, setup.inputs, *setup.model, report);
  }
}

}  // namespace sdmpeb::e2e
