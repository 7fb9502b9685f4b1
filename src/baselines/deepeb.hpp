#pragma once

#include <memory>

#include "baselines/fno.hpp"
#include "core/peb_net.hpp"
#include "nn/layers.hpp"

namespace sdmpeb::baselines {

/// DeePEB baseline [15], the prior state of the art: an FNO global branch
/// capturing low-frequency behaviour plus a CNN local branch for
/// high-frequency detail, fused by summation before the FNO branch's
/// pointwise head — the architecture SDM-PEB is measured against most
/// closely in Table II.
struct DeePebConfig {
  FnoConfig fno;
  std::int64_t cnn_channels = 12;
  std::int64_t cnn_layers = 2;
};

class DeePeb : public core::PebNet {
 public:
  DeePeb(const DeePebConfig& config, Rng& rng);

  nn::Value forward(const nn::Value& acid) const override;
  std::string name() const override { return "DeePEB"; }

 private:
  DeePebConfig config_;
  std::unique_ptr<Fno> fno_branch_;
  std::vector<std::unique_ptr<nn::Conv3d>> cnn_branch_;
  nn::Linear align_;  ///< maps CNN channels onto the FNO width for the sum
};

}  // namespace sdmpeb::baselines
