#pragma once

#include <memory>
#include <vector>

#include "core/peb_net.hpp"
#include "nn/layers.hpp"

namespace sdmpeb::baselines {

/// Fourier Neural Operator baseline [19]: pointwise lift, L spectral layers
/// (low-mode 3-D spectral convolution + pointwise linear bypass, GELU),
/// pointwise projection head. All spatial dims must be powers of two (the
/// repo's FFT substrate is radix-2).
struct FnoConfig {
  std::int64_t width = 12;     ///< lifted channel count
  std::int64_t layers = 2;
  std::int64_t modes_d = 4;
  std::int64_t modes_h = 8;
  std::int64_t modes_w = 8;
};

class Fno : public core::PebNet {
 public:
  Fno(const FnoConfig& config, Rng& rng);

  nn::Value forward(const nn::Value& acid) const override;
  std::string name() const override { return "FNO"; }

  const FnoConfig& config() const { return config_; }

 private:
  friend class DeePeb;
  /// Lift and spectral layers: (1, D, H, W) -> (width, D, H, W).
  nn::Value forward_features(const nn::Value& acid) const;
  /// Pointwise projection head: (width, D, H, W) -> (D, H, W). DeePEB
  /// applies it to its fused global + local features.
  nn::Value head(const nn::Value& features) const;

  FnoConfig config_;
  nn::Linear lift_;
  struct SpectralLayer : nn::Module {
    SpectralLayer(const FnoConfig& config, Rng& rng);
    nn::Value w_real;
    nn::Value w_imag;
    nn::Linear bypass;
  };
  std::vector<std::unique_ptr<SpectralLayer>> spectral_;
  nn::Linear proj1_;
  nn::Linear proj2_;
};

}  // namespace sdmpeb::baselines
