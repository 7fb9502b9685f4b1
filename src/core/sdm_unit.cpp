#include "core/sdm_unit.hpp"

#include <cmath>

#include "common/error.hpp"

namespace sdmpeb::core {

namespace nnops = nn::ops;

SdmUnit::DirectionBranch::DirectionBranch(const SdmUnitConfig& config,
                                          Rng& rng)
    : conv_(config.hidden, config.conv_kernel, rng),
      b_proj_(config.hidden, config.state_dim, rng),
      c_proj_(config.hidden, config.state_dim, rng),
      delta_proj_(config.hidden, 1, rng) {
  register_module(conv_);
  register_module(b_proj_);
  register_module(c_proj_);
  register_module(delta_proj_);
  // softplus(-2) ~ 0.127: a moderate initial step size Δ.
  delta_bias_ =
      register_parameter(Tensor::full(Shape{1, config.hidden}, -2.0f));
  // S4D-real style init: A_n = -(n + 1) per state, shared start per channel.
  Tensor a_log(Shape{config.hidden, config.state_dim});
  for (std::int64_t c = 0; c < config.hidden; ++c)
    for (std::int64_t n = 0; n < config.state_dim; ++n)
      a_log.at(c, n) = std::log(static_cast<float>(n + 1));
  a_log_ = register_parameter(std::move(a_log));
  d_skip_ = register_parameter(Tensor::full(Shape{config.hidden}, 1.0f));
}

nn::Value SdmUnit::DirectionBranch::scan(const nn::Value& xd) const {
  const auto x_conv = nnops::silu(conv_.forward(xd));
  const auto b = b_proj_.forward(x_conv);
  const auto c = c_proj_.forward(x_conv);
  // Δ = softplus(Broadcast_K(Linear_1(x)) + D) — Eq. 11, computed inside
  // the scan from the (L, 1) column and the (1, Ch) bias.
  const auto delta_col = delta_proj_.forward(x_conv);
  return nnops::selective_scan(x_conv, delta_col, delta_bias_, a_log_, b, c,
                               d_skip_);
}

SdmUnit::SdmUnit(const SdmUnitConfig& config, Rng& rng)
    : config_(config),
      x_proj_(config.channels, config.hidden, rng),
      z_proj_(config.channels, config.hidden, rng),
      // Small output-projection init keeps the residual branch near zero at
      // start: the three summed scan branches otherwise amplify the
      // sequence ~30x and destabilise the first optimiser steps.
      out_proj_(config.hidden, config.channels, rng, true, 0.05f) {
  SDMPEB_CHECK(config.channels > 0 && config.hidden > 0 &&
               config.state_dim > 0);
  register_module(x_proj_);
  register_module(z_proj_);
  register_module(out_proj_);
  const auto branch_count =
      config.directions == ScanDirections::kSpatialDepthwise ? 3 : 2;
  for (int i = 0; i < branch_count; ++i) {
    branches_.push_back(std::make_unique<DirectionBranch>(config, rng));
    register_module(*branches_.back());
  }
}

nn::Value SdmUnit::forward(const nn::Value& x, std::int64_t depth,
                           std::int64_t height, std::int64_t width) const {
  SDMPEB_CHECK(x->value().rank() == 2);
  const auto seq_len = depth * height * width;
  SDMPEB_CHECK(x->value().dim(0) == seq_len);
  SDMPEB_CHECK(x->value().dim(1) == config_.channels);

  const auto x_in = x_proj_.forward(x);
  const auto gate = nnops::silu(z_proj_.forward(x));

  // Scan orderings over the depth-major sequence l = (d·H + h)·W + w:
  //   depth-forward : identity (whole shallow layer first)
  //   depth-backward: reversed
  //   spatial       : (h, w)-major — all depth levels of one lateral
  //                   position consecutively.
  std::vector<std::int64_t> reverse_idx(
      static_cast<std::size_t>(seq_len));
  for (std::int64_t i = 0; i < seq_len; ++i)
    reverse_idx[static_cast<std::size_t>(i)] = seq_len - 1 - i;
  std::vector<std::int64_t> spatial_idx(
      static_cast<std::size_t>(seq_len));
  std::vector<std::int64_t> spatial_inv(
      static_cast<std::size_t>(seq_len));
  {
    std::int64_t pos = 0;
    for (std::int64_t h = 0; h < height; ++h)
      for (std::int64_t w = 0; w < width; ++w)
        for (std::int64_t d = 0; d < depth; ++d, ++pos) {
          const auto row = (d * height + h) * width + w;
          spatial_idx[static_cast<std::size_t>(pos)] = row;
          spatial_inv[static_cast<std::size_t>(row)] = pos;
        }
  }

  // Branch order: [spatial,] depth-forward, depth-backward.
  std::size_t branch = 0;
  nn::Value combined;
  const auto accumulate = [&combined](const nn::Value& y) {
    combined = combined ? nnops::add(combined, y) : y;
  };

  if (config_.directions == ScanDirections::kSpatialDepthwise) {
    const auto xd = nnops::gather_rows(x_in, spatial_idx);
    const auto y = branches_[branch++]->scan(xd);
    accumulate(nnops::gather_rows(y, spatial_inv));
  }
  accumulate(branches_[branch++]->scan(x_in));
  {
    const auto xd = nnops::gather_rows(x_in, reverse_idx);
    const auto y = branches_[branch++]->scan(xd);
    accumulate(nnops::gather_rows(y, reverse_idx));
  }

  return out_proj_.forward(nnops::mul(combined, gate));
}

}  // namespace sdmpeb::core
