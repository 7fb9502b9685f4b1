#include "core/attention.hpp"

#include <cmath>

#include "common/error.hpp"

namespace sdmpeb::core {

namespace nnops = nn::ops;

namespace {

/// The key/value reduction Linear(C·r -> C) of Eq. 15, or nullptr at r == 1
/// (no reduction). At r == 1 the layer's weights are still drawn before it
/// is dropped, so every parameter initialised after it keeps the value
/// that existing seeded models and results were produced with.
std::unique_ptr<nn::Linear> make_kv_reduce(std::int64_t channels,
                                           std::int64_t reduction, Rng& rng) {
  auto layer =
      std::make_unique<nn::Linear>(channels * reduction, channels, rng);
  if (reduction == 1) layer.reset();
  return layer;
}

}  // namespace

EfficientSpatialSelfAttention::EfficientSpatialSelfAttention(
    std::int64_t channels, std::int64_t heads, std::int64_t reduction,
    Rng& rng)
    : channels_(channels),
      heads_(heads),
      reduction_(reduction),
      q_proj_(channels, channels, rng),
      kv_reduce_(make_kv_reduce(channels, reduction, rng)),
      k_proj_(channels, channels, rng),
      v_proj_(channels, channels, rng),
      // Residual-branch output projection starts small (see SdmUnit).
      out_proj_(channels, channels, rng, true, 0.1f) {
  SDMPEB_CHECK(heads >= 1 && reduction >= 1);
  SDMPEB_CHECK_MSG(channels % heads == 0,
                   "channels " << channels << " not divisible by heads "
                               << heads);
  register_module(q_proj_);
  if (kv_reduce_) register_module(*kv_reduce_);
  register_module(k_proj_);
  register_module(v_proj_);
  register_module(out_proj_);
}

nn::Value EfficientSpatialSelfAttention::forward(const nn::Value& x,
                                                 std::int64_t depth,
                                                 std::int64_t height,
                                                 std::int64_t width) const {
  SDMPEB_CHECK(x->value().rank() == 2);
  const auto plane = height * width;
  SDMPEB_CHECK(x->value().dim(0) == depth * plane);
  SDMPEB_CHECK(x->value().dim(1) == channels_);

  // The projections run once over all D slices. A GEMM's per-element
  // accumulation order does not depend on its row count, so each row
  // matches a per-slice projection bit for bit.
  const auto q = q_proj_.forward(x);
  nn::Value reduced = x;
  auto kv_rows = plane;  // key/value tokens per slice
  if (kv_reduce_) {
    SDMPEB_CHECK_MSG(plane % reduction_ == 0,
                     "slice tokens " << plane
                                     << " not divisible by reduction "
                                     << reduction_);
    // Slices are contiguous rows, so this reshape stacks the per-slice
    // Reshape(HW/r, C·r) of Eq. 15.
    kv_rows = plane / reduction_;
    reduced = kv_reduce_->forward(nnops::reshape(
        x, Shape{depth * kv_rows, channels_ * reduction_}));
  }
  const auto k = k_proj_.forward(reduced);
  const auto v = v_proj_.forward(reduced);

  // QKᵀ, softmax and AV stay within one slice and one head.
  const auto head_dim = channels_ / heads_;
  const float scale =
      1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<nn::Value> slices;
  slices.reserve(static_cast<std::size_t>(depth));
  for (std::int64_t d = 0; d < depth; ++d) {
    const auto qd = nnops::narrow_rows(q, d * plane, plane);
    const auto kd = nnops::narrow_rows(k, d * kv_rows, kv_rows);
    const auto vd = nnops::narrow_rows(v, d * kv_rows, kv_rows);
    std::vector<nn::Value> head_outputs;
    head_outputs.reserve(static_cast<std::size_t>(heads_));
    for (std::int64_t h = 0; h < heads_; ++h) {
      const auto qh = nnops::narrow_cols(qd, h * head_dim, head_dim);
      const auto kh = nnops::narrow_cols(kd, h * head_dim, head_dim);
      const auto vh = nnops::narrow_cols(vd, h * head_dim, head_dim);
      const auto scores =
          nnops::mul_scalar(nnops::matmul(qh, kh, false, true), scale);
      const auto attn = nnops::softmax_rows(scores);
      head_outputs.push_back(nnops::matmul(attn, vh));
    }
    slices.push_back(heads_ == 1 ? head_outputs.front()
                                 : nnops::concat_cols(head_outputs));
  }
  return out_proj_.forward(depth == 1 ? slices.front()
                                      : nnops::concat_rows(slices));
}

}  // namespace sdmpeb::core
