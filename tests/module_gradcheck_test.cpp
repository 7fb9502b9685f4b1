// Module-level gradient checks: finite differences through entire layers
// and composed blocks (not just single ops), at miniature sizes, and a
// liveness check that every parameter of every model receives a gradient.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "baselines/deepeb.hpp"
#include "core/attention.hpp"
#include "core/sdm_unit.hpp"
#include "gradcheck.hpp"
#include "nn/layers.hpp"
#include "serve/frozen_model.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;
using sdmpeb::testing::expect_gradients_match;

// Check d(loss)/d(input) through a whole module by treating the module's
// parameters as constants and the input as the differentiated leaf.
template <typename Forward>
void check_input_gradient(const Forward& forward, Shape input_shape,
                          std::uint64_t seed, double eps = 1e-2,
                          double tol = 3e-2) {
  Rng rng(seed);
  expect_gradients_match(
      [&forward](const std::vector<nn::Value>& leaves) {
        return nnops::sum(nnops::square(forward(leaves[0])));
      },
      {Tensor::uniform(std::move(input_shape), rng, -0.5f, 0.5f)}, eps, tol);
}

TEST(ModuleGradCheck, MlpInputGradient) {
  Rng rng(1);
  nn::Mlp mlp(3, 5, 2, rng);
  check_input_gradient([&](const nn::Value& x) { return mlp.forward(x); },
                       Shape{4, 3}, 2);
}

TEST(ModuleGradCheck, LayerNormInputGradient) {
  nn::LayerNorm ln(6);
  check_input_gradient([&](const nn::Value& x) { return ln.forward(x); },
                       Shape{3, 6}, 3);
}

TEST(ModuleGradCheck, SdmUnitInputGradient) {
  Rng rng(4);
  core::SdmUnitConfig config;
  config.channels = 3;
  config.hidden = 6;
  config.state_dim = 2;
  core::SdmUnit unit(config, rng);
  check_input_gradient(
      [&](const nn::Value& x) { return unit.forward(x, 2, 2, 2); },
      Shape{8, 3}, 5);
}

TEST(ModuleGradCheck, SdmUnitTwoDirectionInputGradient) {
  Rng rng(6);
  core::SdmUnitConfig config;
  config.channels = 3;
  config.hidden = 6;
  config.state_dim = 2;
  config.directions = core::ScanDirections::kDepthForwardBackward;
  core::SdmUnit unit(config, rng);
  check_input_gradient(
      [&](const nn::Value& x) { return unit.forward(x, 2, 2, 2); },
      Shape{8, 3}, 7);
}

TEST(ModuleGradCheck, AttentionInputGradient) {
  Rng rng(8);
  core::EfficientSpatialSelfAttention attn(4, 2, 2, rng);
  check_input_gradient(
      [&](const nn::Value& x) { return attn.forward(x, 2, 2, 2); },
      Shape{8, 4}, 9);
}

TEST(ModuleGradCheck, ConvStackInputGradient) {
  Rng rng(10);
  nn::Conv2dPerDepth conv(1, 2, 3, 2, 1, rng);
  nn::ConvTranspose2dPerDepth deconv(2, 1, 4, 2, 1, rng);
  check_input_gradient(
      [&](const nn::Value& x) {
        return deconv.forward(nnops::leaky_relu(conv.forward(x), 0.1f));
      },
      Shape{1, 2, 4, 4}, 11);
}

TEST(ModuleGradCheck, DWConv3dInputGradient) {
  Rng rng(12);
  nn::DWConv3d conv(2, 3, 1, rng);
  check_input_gradient([&](const nn::Value& x) { return conv.forward(x); },
                       Shape{2, 3, 3, 3}, 13);
}

// ---------------------------------------------------------------------------
// Gradient liveness: after one backward of sum(y^2), every parameter must
// hold a finite, non-zero gradient. A layer that is built and registered
// but never reaches the output keeps an all-zero gradient — dead weight in
// every checkpoint and optimizer step that a loss-goes-down test cannot
// see. (Zero in exact arithmetic is not enough to fail: the attention key
// bias is softmax-shift-invariant, and rounding keeps its gradient
// non-zero. What this catches is a parameter no op ever touched.)
// ---------------------------------------------------------------------------

/// Expect every parameter of `module` to have a finite gradient with at
/// least one non-zero element; `what` names the module in failures.
void expect_live_gradients(const nn::Module& module, const std::string& what) {
  const auto params = module.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& g = params[i]->grad();
    bool finite = true;
    bool nonzero = false;
    for (std::int64_t j = 0; j < g.numel(); ++j) {
      finite = finite && std::isfinite(g[j]);
      nonzero = nonzero || g[j] != 0.0f;
    }
    EXPECT_TRUE(finite && nonzero)
        << what << ": parameter " << i << " of " << params.size()
        << ", shape " << g.shape().to_string()
        << (finite ? ", gradient is all zero" : ", gradient is not finite");
  }
}

TEST(GradientLiveness, AttentionWithAndWithoutKvReduction) {
  for (const std::int64_t reduction : {1, 4}) {
    Rng rng(14);
    core::EfficientSpatialSelfAttention attn(8, 2, reduction, rng);
    // q/k/v/out projections, plus kv_reduce_ (Linear(8r -> 8)) when r > 1.
    EXPECT_EQ(attn.parameter_count(),
              4 * (8 * 8 + 8) + (reduction > 1 ? 8 * reduction * 8 + 8 : 0))
        << "kv_reduce_ registered at reduction " << reduction;
    const auto x = nn::constant(Tensor::uniform(Shape{2 * 16, 8}, rng));
    nn::backward(nnops::sum(nnops::square(attn.forward(x, 2, 4, 4))));
    expect_live_gradients(attn, "attention at reduction " +
                                    std::to_string(reduction));
  }
}

TEST(GradientLiveness, DeePebFusesIntoItsFnoBranchHead) {
  Rng rng(16);
  const baselines::DeePebConfig config;
  const baselines::DeePeb deepeb(config, rng);
  const baselines::Fno fno(config.fno, rng);
  // The FNO branch (with its pointwise head), the 3x3x3 CNN branch and the
  // align_ projection — and no second head of DeePEB's own.
  const auto c = config.cnn_channels;
  const auto cnn = (c * 27 + c) + (config.cnn_layers - 1) * (c * c * 27 + c);
  const auto align = c * config.fno.width + config.fno.width;
  EXPECT_EQ(deepeb.parameter_count(), fno.parameter_count() + cnn + align)
      << "DeePEB registers a head besides its FNO branch's";
}

struct Architecture {
  const char* model;
  serve::ModelScale scale;
};

/// Test names and ctest ids read "<model>" or "<model>_tiny".
std::string architecture_name(const Architecture& arch) {
  return std::string(arch.model) +
         (arch.scale == serve::ModelScale::kTiny ? "_tiny" : "");
}
void PrintTo(const Architecture& arch, std::ostream* os) {
  *os << architecture_name(arch);
}

class GradientLivenessTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(GradientLivenessTest, EveryParameterGetsAGradient) {
  const auto [model_name, scale] = GetParam();
  Rng rng(15);
  const auto model = serve::make_peb_net(model_name, scale, rng);
  const auto acid =
      nn::constant(Tensor::uniform(Shape{1, 4, 32, 32}, rng, 0.0f, 1.0f));
  nn::backward(nnops::sum(nnops::square(model->forward(acid))));
  expect_live_gradients(*model, model->name());
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradientLivenessTest,
    ::testing::Values(Architecture{"sdm", serve::ModelScale::kDefault},
                      Architecture{"sdm", serve::ModelScale::kTiny},
                      Architecture{"deepcnn", serve::ModelScale::kDefault},
                      Architecture{"tempo", serve::ModelScale::kDefault},
                      Architecture{"fno", serve::ModelScale::kDefault},
                      Architecture{"deepeb", serve::ModelScale::kDefault}),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      return architecture_name(info.param);
    });

}  // namespace
}  // namespace sdmpeb
