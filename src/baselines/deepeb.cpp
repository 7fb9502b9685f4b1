#include "baselines/deepeb.hpp"

#include "common/error.hpp"

namespace sdmpeb::baselines {

namespace nnops = nn::ops;

DeePeb::DeePeb(const DeePebConfig& config, Rng& rng)
    : config_(config), align_(config.cnn_channels, config.fno.width, rng) {
  SDMPEB_CHECK(config.cnn_channels > 0 && config.cnn_layers >= 1);
  fno_branch_ = std::make_unique<Fno>(config.fno, rng);
  register_module(*fno_branch_);
  std::int64_t in_channels = 1;
  for (std::int64_t i = 0; i < config.cnn_layers; ++i) {
    cnn_branch_.push_back(std::make_unique<nn::Conv3d>(
        in_channels, config.cnn_channels, 3, 1, 1, rng));
    register_module(*cnn_branch_.back());
    in_channels = config.cnn_channels;
  }
  register_module(align_);
}

nn::Value DeePeb::forward(const nn::Value& acid) const {
  SDMPEB_CHECK(acid->value().rank() == 4 && acid->value().dim(0) == 1);
  const auto depth = acid->value().dim(1);
  const auto height = acid->value().dim(2);
  const auto width = acid->value().dim(3);

  const auto global_features = fno_branch_->forward_features(acid);

  auto local = acid;
  for (const auto& conv : cnn_branch_)
    local = nnops::relu(conv->forward(local));
  const auto local_aligned = nnops::to_feature(
      align_.forward(nnops::to_sequence(local)), config_.fno.width, depth,
      height, width);

  return fno_branch_->head(nnops::add(global_features, local_aligned));
}

}  // namespace sdmpeb::baselines
