#include "core/losses.hpp"

#include "common/error.hpp"

namespace sdmpeb::core {

namespace nnops = nn::ops;

namespace {

/// Eq. 22's empirical weights and the focal / divergence shape parameters.
constexpr float kFocalWeight = 1.0f;       // alpha
constexpr float kDivergenceWeight = 0.1f;  // beta
constexpr float kFocalGamma = 1.0f;        // gamma, Eq. 17
constexpr float kDivergenceTau = 0.1f;     // tau, Eqs. 19-21

}  // namespace

nn::Value max_se_loss(const nn::Value& pred, const nn::Value& target) {
  return nnops::max_all(nnops::square(nnops::sub(pred, target)));
}

nn::Value peb_focal_loss(const nn::Value& pred, const nn::Value& target,
                         float gamma) {
  // Eq. 17 is a SUM over the volume: at realistic voxel counts the focal
  // term dominates the single-voxel MaxSE, so the gradient is driven by
  // overall distribution fit with hard voxels up-weighted |e|^gamma.
  const auto diff = nnops::sub(pred, target);
  const auto weighted =
      nnops::mul(nnops::abs_pow(diff, gamma), nnops::square(diff));
  return nnops::sum(weighted);
}

nn::Value depth_divergence_loss(const nn::Value& pred,
                                const nn::Value& target, float tau) {
  SDMPEB_CHECK(pred->value().rank() == 3);
  SDMPEB_CHECK(pred->value().shape() == target->value().shape());
  const auto depth = pred->value().dim(0);
  const auto plane = pred->value().dim(1) * pred->value().dim(2);
  SDMPEB_CHECK_MSG(depth >= 2, "depth divergence needs >= 2 layers");

  // Layer-wise forward difference maps (Eq. 18) as (D-1, H*W) matrices.
  const auto as_rows = [&](const nn::Value& v) {
    return nnops::reshape(v, Shape{depth, plane});
  };
  const auto diff_rows = [&](const nn::Value& v) {
    const auto rows = as_rows(v);
    return nnops::sub(nnops::narrow_rows(rows, 1, depth - 1),
                      nnops::narrow_rows(rows, 0, depth - 1));
  };
  const auto d_pred = diff_rows(pred);
  const auto d_target = diff_rows(target);

  // KL(sigma(d_pred) || sigma(d_target)) with temperature tau (Eqs. 19–21).
  const auto p_hat = nnops::softmax_rows(d_pred, tau);
  const auto log_ratio = nnops::sub(nnops::log_softmax_rows(d_pred, tau),
                                    nnops::log_softmax_rows(d_target, tau));
  return nnops::sum(nnops::mul(p_hat, log_ratio));
}

nn::Value combined_loss(const nn::Value& pred, const nn::Value& target,
                        const LossConfig& config) {
  nn::Value loss = max_se_loss(pred, target);
  if (config.use_focal)
    loss = nnops::add(loss, nnops::mul_scalar(peb_focal_loss(
                                 pred, target, kFocalGamma),
                             kFocalWeight));
  if (config.use_divergence)
    loss = nnops::add(loss, nnops::mul_scalar(depth_divergence_loss(
                                 pred, target, kDivergenceTau),
                             kDivergenceWeight));
  return loss;
}

}  // namespace sdmpeb::core
