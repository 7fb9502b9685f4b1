#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace sdmpeb::core {

/// Efficient spatial self-attention (§III-B, Eq. 15). Attention runs WITHIN
/// each depth slice (the hierarchical encoder extracts "multi-scale spatial
/// information within a single photoacid depth level"); depthwise mixing is
/// the SDM unit's job. The key/value sequence of a slice is shortened by
/// the reduction ratio r via Reshape(HW/r, C·r) followed by a Linear back to
/// C — dropping the per-slice attention cost from O((HW)^2) to O((HW)^2/r).
class EfficientSpatialSelfAttention : public nn::Module {
 public:
  /// `reduction` must divide H·W at the call sites; `channels` must be a
  /// multiple of `heads`.
  EfficientSpatialSelfAttention(std::int64_t channels, std::int64_t heads,
                                std::int64_t reduction, Rng& rng);

  /// x is the (D·H·W, C) depth-major sequence of a (C, D, H, W) feature map.
  nn::Value forward(const nn::Value& x, std::int64_t depth,
                    std::int64_t height, std::int64_t width) const;

 private:
  std::int64_t channels_;
  std::int64_t heads_;
  std::int64_t reduction_;
  nn::Linear q_proj_;
  /// Linear(C·r -> C) of Eq. 15; absent when r == 1 (no reduction).
  std::unique_ptr<nn::Linear> kv_reduce_;
  nn::Linear k_proj_;
  nn::Linear v_proj_;
  nn::Linear out_proj_;
};

}  // namespace sdmpeb::core
