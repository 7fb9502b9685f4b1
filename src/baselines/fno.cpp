#include "baselines/fno.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/init.hpp"

namespace sdmpeb::baselines {

namespace nnops = nn::ops;

Fno::SpectralLayer::SpectralLayer(const FnoConfig& config, Rng& rng)
    : bypass(config.width, config.width, rng) {
  // FNO weight init: small uniform scaled by 1/(Cin*Cout).
  const auto scale = static_cast<float>(
      1.0 / (static_cast<double>(config.width) * config.width));
  const Shape shape{config.width, config.width, config.modes_d,
                    config.modes_h, config.modes_w};
  w_real = register_parameter(Tensor::uniform(shape, rng, -scale, scale));
  w_imag = register_parameter(Tensor::uniform(shape, rng, -scale, scale));
  register_module(bypass);
}

Fno::Fno(const FnoConfig& config, Rng& rng)
    : config_(config),
      lift_(1, config.width, rng),
      proj1_(config.width, config.width, rng),
      proj2_(config.width, 1, rng) {
  SDMPEB_CHECK(config.width > 0 && config.layers >= 1);
  register_module(lift_);
  for (std::int64_t i = 0; i < config.layers; ++i) {
    spectral_.push_back(std::make_unique<SpectralLayer>(config, rng));
    register_module(*spectral_.back());
  }
  register_module(proj1_);
  register_module(proj2_);
}

nn::Value Fno::forward_features(const nn::Value& acid) const {
  SDMPEB_CHECK(acid->value().rank() == 4 && acid->value().dim(0) == 1);
  const auto depth = acid->value().dim(1);
  const auto height = acid->value().dim(2);
  const auto width = acid->value().dim(3);

  // Pointwise lift: (1, D, H, W) -> (C, D, H, W).
  auto x = nnops::to_feature(lift_.forward(nnops::to_sequence(acid)),
                             config_.width, depth, height, width);

  for (const auto& layer : spectral_) {
    const auto spectral_out =
        nnops::spectral_conv3d(x, layer->w_real, layer->w_imag,
                               config_.modes_d, config_.modes_h,
                               config_.modes_w);
    const auto bypass_out = nnops::to_feature(
        layer->bypass.forward(nnops::to_sequence(x)), config_.width, depth,
        height, width);
    x = nnops::gelu(nnops::add(spectral_out, bypass_out));
  }
  return x;
}

nn::Value Fno::head(const nn::Value& features) const {
  const auto depth = features->value().dim(1);
  const auto height = features->value().dim(2);
  const auto width = features->value().dim(3);
  auto seq = nnops::to_sequence(features);
  seq = proj2_.forward(nnops::gelu(proj1_.forward(seq)));
  return nnops::reshape(seq, Shape{depth, height, width});
}

nn::Value Fno::forward(const nn::Value& acid) const {
  return head(forward_features(acid));
}

}  // namespace sdmpeb::baselines
