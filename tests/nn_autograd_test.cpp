#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/ops.hpp"
#include "test_util.hpp"

namespace sdmpeb::nn {
namespace {

namespace nnops = ops;
using sdmpeb::testing::expect_gradients_match;
using sdmpeb::testing::random_tensor;

TEST(Autograd, BackwardRequiresScalarRoot) {
  auto x = make_value(Tensor(Shape{2}, 1.0f), true);
  EXPECT_THROW(backward(x), Error);
}

TEST(Autograd, LeafWithoutGradReceivesNone) {
  auto a = make_value(Tensor(Shape{2}, 1.0f), true);
  auto b = constant(Tensor(Shape{2}, 2.0f));
  auto loss = nnops::sum(nnops::mul(a, b));
  backward(loss);
  EXPECT_FLOAT_EQ(a->grad()[0], 2.0f);
  EXPECT_FALSE(b->has_grad());
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  auto a = make_value(Tensor(Shape{1}, 3.0f), true);
  for (int i = 0; i < 2; ++i) {
    auto loss = nnops::sum(nnops::square(a));
    backward(loss);
  }
  EXPECT_FLOAT_EQ(a->grad()[0], 12.0f);  // 2 * (2 * 3)
  a->zero_grad();
  EXPECT_FLOAT_EQ(a->grad()[0], 0.0f);
}

TEST(Autograd, DiamondGraphSumsBothPaths) {
  // loss = sum(x*x + x*x) — x used twice through shared subexpression.
  auto x = make_value(Tensor(Shape{1}, 2.0f), true);
  auto sq = nnops::square(x);
  auto loss = nnops::sum(nnops::add(sq, sq));
  backward(loss);
  EXPECT_FLOAT_EQ(x->grad()[0], 8.0f);
}

TEST(GradCheck, AddSubMul) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::mul(nnops::add(v[0], v[1]), nnops::sub(v[0], v[1])));
      },
      {random_tensor(Shape{2, 3}, 1), random_tensor(Shape{2, 3}, 2)});
}

TEST(GradCheck, ScalarOps) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::mean(nnops::add_scalar(nnops::mul_scalar(v[0], 2.5f),
                                             -1.0f));
      },
      {random_tensor(Shape{5}, 3)});
}

TEST(GradCheck, Activations) {
  for (int which = 0; which < 6; ++which) {
    expect_gradients_match(
        [which](const std::vector<Value>& v) {
          Value y;
          switch (which) {
            case 0: y = nnops::relu(v[0]); break;
            case 1: y = nnops::leaky_relu(v[0], 0.1f); break;
            case 2: y = nnops::silu(v[0]); break;
            case 3: y = nnops::sigmoid(v[0]); break;
            case 4: y = nnops::gelu(v[0]); break;
            default: y = nnops::softplus(v[0]); break;
          }
          return nnops::sum(nnops::square(y));
        },
        // Keep away from the ReLU kink where finite differences lie.
        {random_tensor(Shape{7}, 17, 0.2f, 1.5f)});
  }
}

TEST(GradCheck, ExpLogSquareAbsPow) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::log(nnops::exp(nnops::square(v[0]))));
      },
      {random_tensor(Shape{4}, 5, 0.5f, 1.5f)});
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::abs_pow(v[0], 1.0f));
      },
      {random_tensor(Shape{4}, 6, 0.3f, 1.0f)});
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::abs_pow(v[0], 3.0f));
      },
      {random_tensor(Shape{4}, 7, -1.0f, -0.3f)});
}

TEST(GradCheck, Reductions) {
  expect_gradients_match(
      [](const std::vector<Value>& v) { return nnops::mean(v[0]); },
      {random_tensor(Shape{6}, 8)});
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::max_all(nnops::square(v[0]));
      },
      {random_tensor(Shape{6}, 9, 0.1f, 2.0f)});
}

TEST(GradCheck, MatmulAllTransposeCombos) {
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const Shape sa = ta ? Shape{3, 2} : Shape{2, 3};
      const Shape sb = tb ? Shape{4, 3} : Shape{3, 4};
      expect_gradients_match(
          [ta, tb](const std::vector<Value>& v) {
            return nnops::sum(nnops::square(nnops::matmul(v[0], v[1], ta, tb)));
          },
          {random_tensor(sa, 10), random_tensor(sb, 11)});
    }
  }
}

TEST(GradCheck, LinearWithBias) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(nnops::linear(v[0], v[1], v[2])));
      },
      {random_tensor(Shape{4, 3}, 12), random_tensor(Shape{3, 5}, 13),
       random_tensor(Shape{5}, 14)});
}

TEST(GradCheck, SoftmaxRows) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(nnops::softmax_rows(v[0], 0.7f)));
      },
      {random_tensor(Shape{3, 4}, 15)});
}

TEST(GradCheck, LogSoftmaxRows) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(nnops::log_softmax_rows(v[0], 0.5f)));
      },
      {random_tensor(Shape{3, 4}, 16)});
}

TEST(GradCheck, LayerNorm) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(nnops::layer_norm(v[0], v[1], v[2])));
      },
      {random_tensor(Shape{3, 6}, 18), random_tensor(Shape{6}, 19, 0.5f, 1.5f),
       random_tensor(Shape{6}, 20)},
      1e-2, 3e-2);
}

TEST(GradCheck, ShapeOps) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        auto seq = nnops::to_sequence(v[0]);           // (DHW, C)
        auto back = nnops::to_feature(seq, 2, 2, 2, 2);
        return nnops::sum(nnops::square(back));
      },
      {random_tensor(Shape{2, 2, 2, 2}, 21)});
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        auto top = nnops::narrow_rows(v[0], 0, 2);
        auto bottom = nnops::narrow_rows(v[0], 2, 2);
        auto left = nnops::narrow_cols(v[0], 0, 1);
        return nnops::add(
            nnops::sum(nnops::mul(top, bottom)),
            nnops::sum(nnops::square(left)));
      },
      {random_tensor(Shape{4, 3}, 22)});
}

TEST(GradCheck, ConcatOps) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        auto rows = nnops::concat_rows({v[0], v[1]});
        auto cols = nnops::concat_cols({v[0], v[1]});
        return nnops::add(nnops::sum(nnops::square(rows)),
                          nnops::mean(nnops::square(cols)));
      },
      {random_tensor(Shape{2, 3}, 23), random_tensor(Shape{2, 3}, 24)});
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::concat_channels({v[0], v[1]})));
      },
      {random_tensor(Shape{1, 2, 2, 2}, 25),
       random_tensor(Shape{2, 2, 2, 2}, 26)});
}

TEST(GradCheck, GatherRowsPermutation) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        // A permutation plus a duplicating gather (tests scatter-add).
        auto perm = nnops::gather_rows(v[0], {2, 0, 1});
        auto dup = nnops::gather_rows(v[0], {1, 1});
        return nnops::add(nnops::sum(nnops::square(perm)),
                          nnops::sum(nnops::square(dup)));
      },
      {random_tensor(Shape{3, 2}, 27)});
}

TEST(GradCheck, Conv2dPerDepth) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(
            nnops::conv2d_per_depth(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 2, 4, 4}, 28),
       random_tensor(Shape{3, 2, 3, 3}, 29), random_tensor(Shape{3}, 30)});
}

TEST(GradCheck, ConvTranspose2dPerDepth) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(
            nnops::conv_transpose2d_per_depth(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 2, 3, 3}, 31),
       random_tensor(Shape{2, 3, 4, 4}, 32), random_tensor(Shape{3}, 33)});
}

TEST(GradCheck, Conv3d) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::conv3d(v[0], v[1], v[2], 1, 1)));
      },
      {random_tensor(Shape{2, 3, 3, 3}, 34),
       random_tensor(Shape{2, 2, 3, 3, 3}, 35), random_tensor(Shape{2}, 36)});
}

TEST(GradCheck, DWConv3d) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(nnops::dwconv3d(v[0], v[1], v[2], 1)));
      },
      {random_tensor(Shape{2, 3, 3, 3}, 37),
       random_tensor(Shape{2, 3, 3, 3}, 38), random_tensor(Shape{2}, 39)});
}

TEST(GradCheck, DWConv1dSeq) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::dwconv1d_seq(v[0], v[1], v[2])));
      },
      {random_tensor(Shape{5, 2}, 40), random_tensor(Shape{2, 3}, 41),
       random_tensor(Shape{2}, 42)});
}

TEST(GradCheck, UpsampleNearest) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::upsample_nearest_per_depth(v[0], 2)));
      },
      {random_tensor(Shape{2, 2, 2, 2}, 43)});
}

TEST(GradCheck, SelectiveScan) {
  const std::int64_t seq = 4, channels = 2, states = 3;
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        // delta through softplus keeps the scan in its stable regime.
        return nnops::sum(nnops::square(nnops::selective_scan(
            v[0], nnops::softplus(v[1]), v[2], v[3], v[4], v[5])));
      },
      {random_tensor(Shape{seq, channels}, 44),
       random_tensor(Shape{seq, channels}, 45),
       random_tensor(Shape{channels, states}, 46, -1.0f, 0.5f),
       random_tensor(Shape{seq, states}, 47),
       random_tensor(Shape{seq, states}, 48),
       random_tensor(Shape{channels}, 49)},
      1e-2, 3e-2);
}

// Eq. 11 fused into the scan: the (L, 1) column and the (1, C) bias get
// their gradients through softplus and the broadcasts, at N = 8 (the AVX2
// kernel's register width) and N = 4.
TEST(GradCheck, SelectiveScanFusedDelta) {
  const std::int64_t seq = 5, channels = 3;
  for (const std::int64_t states : {8, 4}) {
    SCOPED_TRACE(::testing::Message() << "N=" << states);
    expect_gradients_match(
        [](const std::vector<Value>& v) {
          return nnops::sum(nnops::square(nnops::selective_scan(
              v[0], v[1], v[2], v[3], v[4], v[5], v[6])));
        },
        {random_tensor(Shape{seq, channels}, 61),
         random_tensor(Shape{seq, 1}, 62, -2.0f, 1.0f),
         random_tensor(Shape{1, channels}, 63, -1.5f, 0.5f),
         random_tensor(Shape{channels, states}, 64, -1.0f, 0.5f),
         random_tensor(Shape{seq, states}, 65),
         random_tensor(Shape{seq, states}, 66),
         random_tensor(Shape{channels}, 67)},
        1e-2, 3e-2);
  }
}

TEST(GradCheck, SpectralConv3d) {
  const std::int64_t cin = 2, cout = 2;
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(
            nnops::spectral_conv3d(v[0], v[1], v[2], 2, 2, 2)));
      },
      {random_tensor(Shape{cin, 2, 4, 4}, 50),
       random_tensor(Shape{cout, cin, 2, 2, 2}, 51),
       random_tensor(Shape{cout, cin, 2, 2, 2}, 52)},
      1e-2, 3e-2);
}

TEST(GradCheck, ReshapePassesGradThrough) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::reshape(v[0], Shape{6})));
      },
      {random_tensor(Shape{2, 3}, 53)});
}

}  // namespace
}  // namespace sdmpeb::nn
