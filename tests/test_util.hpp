#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "tensor/tensor.hpp"

namespace sdmpeb::testing {

/// Seeded tensor with entries uniform in [lo, hi).
inline Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0f,
                            float hi = 1.0f) {
  Rng rng(seed);
  return Tensor::uniform(std::move(shape), rng, lo, hi);
}

/// Seeded vector with entries uniform in [-1, 1).
inline std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Every element of `got` within tol * max(1, |got|, |want|) of `want`;
/// stops at the first element that is not.
inline void expect_close(const Tensor& got, const Tensor& want, float tol,
                         const std::string& what = "") {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float scale =
        std::max({1.0f, std::abs(got[i]), std::abs(want[i])});
    ASSERT_NEAR(got[i], want[i], tol * scale) << what << " element " << i;
  }
}

/// Same shape and the same bytes.
inline void expect_bitwise(const Tensor& got, const Tensor& want,
                           const std::string& what = "") {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(),
                        static_cast<std::size_t>(got.numel()) *
                            sizeof(float)),
            0)
      << what;
}

/// Output and input gradients of one selective scan (run_scan).
struct ScanRun {
  Tensor out;
  std::vector<Tensor> grads;  ///< per input, in argument order; empty
                              ///< when run without gradients
};

/// One selective scan over (L, C) = (600, 10) with `states` states: three
/// channel tasks of the op's 4-channel grain, the last one short, and
/// three row tasks in the backward fold. `fused` takes Δ from an (L, 1)
/// column and a (1, C) bias; otherwise from an (L, C) matrix. With `grad`
/// every input requires a gradient (the forward stores the trajectory) and
/// sum(y²) is backpropagated; without it the scan runs trajectory-free.
inline ScanRun run_scan(std::int64_t states, bool fused, bool grad) {
  constexpr std::int64_t kLen = 600, kChannels = 10;
  std::vector<Tensor> inputs = {random_tensor(Shape{kLen, kChannels}, 71)};
  if (fused) {
    inputs.push_back(random_tensor(Shape{kLen, 1}, 72, -3.0f, 1.0f));
    inputs.push_back(random_tensor(Shape{1, kChannels}, 73, -2.0f, 0.0f));
  } else {
    inputs.push_back(random_tensor(Shape{kLen, kChannels}, 74, 0.02f, 0.6f));
  }
  inputs.push_back(random_tensor(Shape{kChannels, states}, 75, -0.5f, 2.0f));
  inputs.push_back(random_tensor(Shape{kLen, states}, 76));
  inputs.push_back(random_tensor(Shape{kLen, states}, 77));
  inputs.push_back(random_tensor(Shape{kChannels}, 78));

  std::vector<nn::Value> v;
  for (const auto& t : inputs) v.push_back(nn::make_value(t, grad));
  const auto y = fused ? nn::ops::selective_scan(v[0], v[1], v[2], v[3],
                                                 v[4], v[5], v[6])
                       : nn::ops::selective_scan(v[0], v[1], v[2], v[3],
                                                 v[4], v[5]);
  ScanRun run{y->value(), {}};
  if (grad) {
    nn::backward(nn::ops::sum(nn::ops::square(y)));
    for (const auto& leaf : v) run.grads.push_back(leaf->grad());
  }
  return run;
}

}  // namespace sdmpeb::testing
