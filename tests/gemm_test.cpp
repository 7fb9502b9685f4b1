#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "arena_check.hpp"
#include "common/arena.hpp"
#include "common/gemm.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "gradcheck.hpp"
#include "nn/ops.hpp"
#include "oracle.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;
using nn::Value;
using sdmpeb::testing::expect_gradients_match;
using sdmpeb::testing::expect_steady_state_no_alloc;

/// Restores thread count and kernel backend after each test so ordering
/// cannot leak state. The kernel backend is pinned to scalar for the
/// duration of each test: the packed-vs-oracle BITWISE contract holds for
/// the scalar microtile only (DESIGN.md §11). AVX2 agreement with the oracle
/// (tolerance) is covered by simd_test.
class GemmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = parallel::thread_count();
    isa_ = simd::active();
    simd::set_active(simd::Isa::kScalar);
  }
  void TearDown() override {
    parallel::set_thread_count(threads_);
    simd::set_active(isa_);
  }
  int threads_ = 1;
  simd::Isa isa_ = simd::Isa::kScalar;
};

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Run the packed GEMM and the naive oracle on identical inputs and require
/// the outputs to be BITWISE equal (the DESIGN.md §8 contract).
void expect_bitwise_match(std::int64_t m, std::int64_t n, std::int64_t k,
                          bool trans_a, bool trans_b, float beta,
                          std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " n=" << n << " k=" << k << " tA=" << trans_a
               << " tB=" << trans_b << " beta=" << beta);
  const auto lda = trans_a ? m : k;
  const auto ldb = trans_b ? k : n;
  const auto a = random_vec(m * k, seed);
  const auto b = random_vec(k * n, seed + 1);
  const auto c0 = random_vec(m * n, seed + 2);

  auto c_packed = c0;
  auto c_naive = c0;
  gemm::gemm(m, n, k, a.data(), lda, trans_a, b.data(), ldb, trans_b,
             c_packed.data(), n, beta);
  oracle::gemm(m, n, k, a.data(), lda, trans_a, b.data(), ldb, trans_b,
               c_naive.data(), n, beta);
  EXPECT_EQ(std::memcmp(c_packed.data(), c_naive.data(),
                        c_packed.size() * sizeof(float)),
            0);
}

TEST_F(GemmTest, PackedMatchesNaiveBitwiseAcrossShapes) {
  // Tile multiples, sub-tile shapes, and awkward remainders against the
  // kMr=6 / kNr=8 / kMc=48 / kKc=256 / kNc=256 blocking.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},     {1, 8, 3},    {6, 8, 16},    {5, 7, 9},
      {13, 17, 11},  {48, 64, 32}, {50, 61, 37},  {96, 256, 256},
      {97, 259, 300}};
  std::uint64_t seed = 1;
  for (const auto& s : shapes)
    for (bool ta : {false, true})
      for (bool tb : {false, true})
        expect_bitwise_match(s[0], s[1], s[2], ta, tb, 0.0f, seed += 7);
}

TEST_F(GemmTest, PackedMatchesNaiveBitwiseWithBeta) {
  std::uint64_t seed = 100;
  for (float beta : {0.0f, 1.0f, 0.5f})
    for (bool ta : {false, true})
      for (bool tb : {false, true})
        expect_bitwise_match(29, 53, 270, ta, tb, beta, seed += 7);
}

TEST_F(GemmTest, PackedIsThreadCountInvariant) {
  const std::int64_t m = 101, n = 67, k = 300;
  const auto a = random_vec(m * k, 5);
  const auto b = random_vec(k * n, 6);
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c4(c1.size());
  parallel::set_thread_count(1);
  gemm::gemm(m, n, k, a.data(), k, false, b.data(), n, false, c1.data(), n,
             0.0f);
  parallel::set_thread_count(4);
  gemm::gemm(m, n, k, a.data(), k, false, b.data(), n, false, c4.data(), n,
             0.0f);
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0);
}

TEST_F(GemmTest, StridedOutputLeavesGuardColumnsUntouched) {
  // ldc > n is how the conv lowerings write channel-interleaved outputs.
  const std::int64_t m = 14, n = 10, k = 21, ldc = n + 3;
  const auto a = random_vec(m * k, 11);
  const auto b = random_vec(k * n, 12);
  std::vector<float> c_packed(static_cast<std::size_t>(m * ldc), 42.0f);
  auto c_naive = c_packed;
  gemm::gemm(m, n, k, a.data(), k, false, b.data(), n, false,
             c_packed.data(), ldc, 0.0f);
  oracle::gemm(m, n, k, a.data(), k, false, b.data(), n, false,
               c_naive.data(), ldc, 0.0f);
  EXPECT_EQ(std::memcmp(c_packed.data(), c_naive.data(),
                        c_packed.size() * sizeof(float)),
            0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = n; j < ldc; ++j)
      EXPECT_EQ(c_packed[static_cast<std::size_t>(i * ldc + j)], 42.0f);
}

TEST_F(GemmTest, ZeroTimesNanPropagates) {
  // Regression for the retired `if (av == 0.0f) continue;` fast path: a
  // zero activation against a NaN weight must poison the output, in the
  // library and in the oracle.
  const std::int64_t m = 2, n = 8, k = 3;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  auto b = random_vec(k * n, 13);
  b[3] = std::nanf("");
  for (auto* fn : {&gemm::gemm, &oracle::gemm}) {
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    (*fn)(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n, 0.0f);
    EXPECT_TRUE(std::isnan(c[3]));
    EXPECT_TRUE(std::isnan(c[static_cast<std::size_t>(n + 3)]));
  }
}

TEST_F(GemmTest, DegenerateKScalesC) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm::gemm(2, 2, 0, nullptr, 1, false, nullptr, 1, false, c.data(), 2,
             0.5f);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// ---------------------------------------------------------------------------
// Conv lowerings: the im2col/GEMM path against the direct-loop oracle (the
// two "backends" the test names refer to). Different accumulation orders
// and precisions (float panels vs double scalars), so agreement is to a
// relative tolerance, not bitwise.
// ---------------------------------------------------------------------------

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f);
}

void expect_close(const Tensor& got, const Tensor& want, float tol) {
  ASSERT_EQ(got.numel(), want.numel());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float scale =
        std::max({1.0f, std::abs(got[i]), std::abs(want[i])});
    EXPECT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

constexpr float kConvTol = 1e-4f;

TEST_F(GemmTest, Conv2dBackendsAgree) {
  const auto x = random_tensor(Shape{3, 2, 9, 11}, 21);
  const auto w = random_tensor(Shape{4, 3, 3, 3}, 22);
  const auto b = random_tensor(Shape{4}, 23);
  for (auto [stride, pad] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                             {2, 1},
                             {1, 0}})
    expect_close(nnops::conv2d_per_depth(nn::constant(x), nn::constant(w),
                                         nn::constant(b), stride, pad)
                     ->value(),
                 oracle::conv2d_per_depth(x, w, b, stride, pad), kConvTol);
}

TEST_F(GemmTest, ConvTranspose2dBackendsAgree) {
  const auto x = random_tensor(Shape{3, 2, 5, 6}, 31);
  const auto w = random_tensor(Shape{3, 2, 3, 3}, 32);
  const auto b = random_tensor(Shape{2}, 33);
  for (auto [stride, pad] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                             {2, 1},
                             {2, 0}})
    expect_close(
        nnops::conv_transpose2d_per_depth(nn::constant(x), nn::constant(w),
                                          nn::constant(b), stride, pad)
            ->value(),
        oracle::conv_transpose2d_per_depth(x, w, b, stride, pad), kConvTol);
}

TEST_F(GemmTest, Conv3dBackendsAgree) {
  const auto x = random_tensor(Shape{2, 5, 7, 6}, 41);
  const auto w = random_tensor(Shape{3, 2, 3, 3, 3}, 42);
  const auto b = random_tensor(Shape{3}, 43);
  for (auto [stride, pad] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                             {2, 1}})
    expect_close(nnops::conv3d(nn::constant(x), nn::constant(w),
                               nn::constant(b), stride, pad)
                     ->value(),
                 oracle::conv3d(x, w, b, stride, pad), kConvTol);
}

// ---------------------------------------------------------------------------
// Gradchecks on the im2col paths.
// ---------------------------------------------------------------------------

TEST_F(GemmTest, GradCheckConv2dIm2col) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::conv2d_per_depth(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 2, 5, 5}, 51), random_tensor(Shape{3, 2, 3, 3}, 52),
       random_tensor(Shape{3}, 53)});
}

TEST_F(GemmTest, GradCheckConvTranspose2dIm2col) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(
            nnops::conv_transpose2d_per_depth(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 2, 3, 4}, 54), random_tensor(Shape{2, 3, 3, 3}, 55),
       random_tensor(Shape{3}, 56)});
}

TEST_F(GemmTest, GradCheckConv3dIm2col) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::conv3d(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 4, 4, 5}, 57),
       random_tensor(Shape{2, 2, 3, 3, 3}, 58), random_tensor(Shape{2}, 59)});
}

// ---------------------------------------------------------------------------
// Arena reuse: after a warm-up pass sizes the thread-local arenas, repeated
// identical training steps must not allocate any new backing blocks.
// ---------------------------------------------------------------------------

TEST_F(GemmTest, ArenaStopsAllocatingAfterWarmup) {
  parallel::set_thread_count(2);
  const auto x0 = random_tensor(Shape{2, 3, 12, 12}, 61);
  const auto w0 = random_tensor(Shape{4, 2, 3, 3}, 62);
  const auto b0 = random_tensor(Shape{4}, 63);
  expect_steady_state_no_alloc([&] {
    auto x = nn::make_value(x0, true);
    auto w = nn::make_value(w0, true);
    auto b = nn::make_value(b0, true);
    auto loss =
        nnops::sum(nnops::square(nnops::conv2d_per_depth(x, w, b, 1, 1)));
    nn::backward(loss);
  });
}

TEST_F(GemmTest, ArenaReusesAcrossRepeatedGemmCalls) {
  // Single thread: the whole packed path runs inline on the caller, so the
  // second call onward must be allocation-free with no scheduling caveats.
  parallel::set_thread_count(1);
  const std::int64_t m = 70, n = 90, k = 130;
  const auto a = random_vec(m * k, 71);
  const auto b = random_vec(k * n, 72);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm::gemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n,
             0.0f);
  const auto blocks = WorkspaceArena::total_heap_blocks();
  for (int i = 0; i < 10; ++i)
    gemm::gemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n,
               0.0f);
  EXPECT_EQ(WorkspaceArena::total_heap_blocks(), blocks);
}

}  // namespace
}  // namespace sdmpeb
