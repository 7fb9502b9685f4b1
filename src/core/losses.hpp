#pragma once

#include "nn/ops.hpp"

namespace sdmpeb::core {

/// Configuration of the paper's composite training objective (Eq. 22):
///   L = L_MaxSE + alpha * L_PEB-FL + beta * L_Div
/// at the paper's empirical values alpha = 1.0, beta = 0.1, gamma = 1 and
/// tau = 0.1 (constants in losses.cpp). The two switches implement the
/// Table III ablations.
struct LossConfig {
  bool use_focal = true;        ///< 'w/o. Focal Loss' ablation when false
  bool use_divergence = true;   ///< 'w/o. Regularization' ablation when false
};

/// Maximum squared error over the volume (Eq. 16, DeePEB's objective).
nn::Value max_se_loss(const nn::Value& pred, const nn::Value& target);

/// PEB focal loss (Eq. 17): sum over the volume of |e|^gamma * e^2 with e
/// the pointwise error.
nn::Value peb_focal_loss(const nn::Value& pred, const nn::Value& target,
                         float gamma);

/// Differential depth divergence regularisation (Eqs. 18–21): KL divergence
/// between softened inter-layer difference maps. `pred` and `target` are
/// rank-3 (D, H, W) label volumes.
nn::Value depth_divergence_loss(const nn::Value& pred,
                                const nn::Value& target, float tau);

/// The full combined objective on (D, H, W) label-space volumes.
nn::Value combined_loss(const nn::Value& pred, const nn::Value& target,
                        const LossConfig& config);

}  // namespace sdmpeb::core
