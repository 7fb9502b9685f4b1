#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/ops.hpp"
#include "nn/value.hpp"
#include "peb/peb_solver.hpp"
#include "tensor/grid3.hpp"
#include "test_util.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;
using nn::Value;
using sdmpeb::testing::expect_bitwise;
using sdmpeb::testing::random_tensor;
using sdmpeb::testing::run_scan;

/// Restores the pool width chosen by SDMPEB_THREADS when a test that sweeps
/// widths finishes, so test order cannot leak state.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = parallel::thread_count(); }
  void TearDown() override { parallel::set_thread_count(original_); }
  int original_ = 1;
};

// ---------------------------------------------------------------------------
// Coverage: every index visited exactly once, for awkward range shapes.
// ---------------------------------------------------------------------------

void expect_exact_cover(std::int64_t begin, std::int64_t end,
                        std::int64_t grain) {
  const auto n = end > begin ? end - begin : 0;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  parallel::parallel_for(begin, end, grain,
                         [&](std::int64_t b, std::int64_t e) {
                           ASSERT_LE(begin, b);
                           ASSERT_LE(b, e);
                           ASSERT_LE(e, end);
                           for (std::int64_t i = b; i < e; ++i)
                             hits[static_cast<std::size_t>(i - begin)]
                                 .fetch_add(1);
                         });
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "index " << begin + i << " (begin=" << begin << " end=" << end
        << " grain=" << grain << ")";
}

TEST_F(ParallelTest, ForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 4}) {
    parallel::set_thread_count(threads);
    ASSERT_EQ(parallel::thread_count(), threads);
    expect_exact_cover(0, 0, 1);      // empty
    expect_exact_cover(5, 5, 16);     // empty, nonzero begin
    expect_exact_cover(3, 2, 4);      // inverted -> empty
    expect_exact_cover(0, 1, 1);      // single element
    expect_exact_cover(0, 3, 100);    // grain > n -> one chunk
    expect_exact_cover(0, 1000, 7);   // ragged tail
    expect_exact_cover(-13, 29, 5);   // negative begin
  }
}

TEST_F(ParallelTest, ChunkBoundariesIndependentOfThreadCount) {
  auto boundaries = [](std::int64_t begin, std::int64_t end,
                       std::int64_t grain) {
    std::vector<std::int64_t> out(
        static_cast<std::size_t>(3 * parallel::chunk_count(begin, end, grain)),
        -1);
    parallel::for_chunks(begin, end, grain,
                         [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                           const auto base = static_cast<std::size_t>(3 * c);
                           out[base] = c;
                           out[base + 1] = b;
                           out[base + 2] = e;
                         });
    return out;
  };
  parallel::set_thread_count(1);
  const auto serial = boundaries(0, 1000, 37);
  parallel::set_thread_count(4);
  EXPECT_EQ(boundaries(0, 1000, 37), serial);
  EXPECT_EQ(parallel::chunk_count(0, 1000, 37), (1000 + 36) / 37);
  EXPECT_EQ(parallel::chunk_count(0, 0, 8), 0);
  EXPECT_EQ(parallel::chunk_count(2, 3, 8), 1);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  parallel::set_thread_count(4);
  EXPECT_THROW(
      parallel::parallel_for(0, 100, 1,
                             [](std::int64_t b, std::int64_t) {
                               if (b == 42) throw std::runtime_error("boom");
                             }),
      std::runtime_error);
  // The pool survives a throwing loop.
  expect_exact_cover(0, 64, 3);
}

TEST_F(ParallelTest, ReduceFoldsPartialsInChunkOrder) {
  std::vector<double> values(10000);
  Rng rng(7);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);
  auto total = [&]() {
    return parallel::reduce<double>(
        0, static_cast<std::int64_t>(values.size()), 128, 0.0,
        [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i)
            acc += values[static_cast<std::size_t>(i)];
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  parallel::set_thread_count(1);
  const double serial = total();
  parallel::set_thread_count(4);
  for (int rep = 0; rep < 8; ++rep) {
    const double threaded = total();
    EXPECT_EQ(serial, threaded);  // bitwise: same combination tree
  }
}

// ---------------------------------------------------------------------------
// Determinism: a full training step reproduces bit-for-bit across widths.
// ---------------------------------------------------------------------------

/// One synthetic "training step" exercising every parallelised kernel
/// family: dense conv fwd/bwd, depthwise convs, matmul, layer norm, softmax,
/// spectral conv (FFT path), elementwise and reductions. Returns the loss
/// and every parameter gradient, flattened.
std::vector<float> training_step_fingerprint() {
  auto x = nn::make_value(random_tensor(Shape{2, 4, 8, 8}, 11), true);
  auto w2 = nn::make_value(random_tensor(Shape{3, 2, 3, 3}, 12), true);
  auto b2 = nn::make_value(random_tensor(Shape{3}, 13), true);
  auto w3 = nn::make_value(random_tensor(Shape{2, 3, 3, 3, 3}, 14), true);
  auto b3 = nn::make_value(random_tensor(Shape{2}, 15), true);
  auto wd = nn::make_value(random_tensor(Shape{2, 3, 3, 3}, 16), true);
  auto wr = nn::make_value(random_tensor(Shape{2, 2, 2, 2, 2}, 17), true);
  auto wi = nn::make_value(random_tensor(Shape{2, 2, 2, 2, 2}, 18), true);
  auto wseq = nn::make_value(random_tensor(Shape{2, 3}, 19), true);
  auto wlin = nn::make_value(random_tensor(Shape{2, 2}, 20), true);
  auto gamma = nn::make_value(Tensor(Shape{2}, 1.0f), true);
  auto beta = nn::make_value(Tensor(Shape{2}, 0.0f), true);

  auto h = nnops::conv2d_per_depth(x, w2, b2, 1, 1);    // (3, 4, 8, 8)
  h = nnops::silu(h);
  h = nnops::conv3d(h, w3, b3, 1, 1);                   // (2, 4, 8, 8)
  h = nnops::dwconv3d(h, wd, Value{}, 1);               // (2, 4, 8, 8)
  h = nnops::spectral_conv3d(h, wr, wi, 2, 2, 2);       // FFT round trip
  auto seq = nnops::to_sequence(h);                     // (256, 2)
  seq = nnops::dwconv1d_seq(seq, wseq, Value{});
  seq = nnops::layer_norm(seq, gamma, beta, 1e-5f);
  seq = nnops::matmul(seq, wlin);
  seq = nnops::softmax_rows(seq);
  auto loss = nnops::mean(nnops::square(seq));
  nn::backward(loss);

  std::vector<float> fingerprint;
  fingerprint.push_back(loss->value()[0]);
  for (const auto& p :
       {x, w2, b2, w3, b3, wd, wr, wi, wseq, wlin, gamma, beta}) {
    const Tensor& g = p->grad();
    for (std::int64_t i = 0; i < g.numel(); ++i) fingerprint.push_back(g[i]);
  }
  return fingerprint;
}

TEST_F(ParallelTest, TrainingStepBitwiseIdenticalAcrossThreadCounts) {
  parallel::set_thread_count(1);
  const auto serial = training_step_fingerprint();
  ASSERT_GT(serial.size(), 100u);
  for (int threads : {2, 4}) {
    parallel::set_thread_count(threads);
    const auto threaded = training_step_fingerprint();
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(serial[i], threaded[i])
          << "grad element " << i << " differs at " << threads << " threads";
  }
}

// The selective scan runs channel blocks on the pool, forward and adjoint,
// and folds the cross-channel dB and dC sums over row blocks: output and
// every gradient must match pool width 1 bit for bit, on each backend, for
// the fused and the unfused Δ, at N = 8 (one AVX2 register) and N = 4.
TEST_F(ParallelTest, SelectiveScanBitwiseIdenticalAcrossThreadCounts) {
  const simd::Isa isa = simd::active();
  std::vector<simd::Isa> backends = {simd::Isa::kScalar};
  if (simd::cpu_has_avx2()) backends.push_back(simd::Isa::kAvx2);
  for (const simd::Isa backend : backends) {
    simd::set_active(backend);
    for (const std::int64_t states : {8, 4})
      for (const bool fused : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << simd::isa_name(backend) << " N=" << states
                     << (fused ? " fused" : " unfused"));
        parallel::set_thread_count(1);
        const auto serial = run_scan(states, fused, true);
        for (int threads : {2, 3, 4}) {
          parallel::set_thread_count(threads);
          const auto threaded = run_scan(states, fused, true);
          expect_bitwise(threaded.out, serial.out, "out");
          ASSERT_EQ(threaded.grads.size(), serial.grads.size());
          for (std::size_t i = 0; i < serial.grads.size(); ++i)
            expect_bitwise(threaded.grads[i], serial.grads[i],
                           "grad " + std::to_string(i));
        }
      }
  }
  simd::set_active(isa);
}

Grid3 peb_fingerprint() {
  peb::PebParams params;
  params.dt_s = 0.5;
  params.duration_s = 2.0;
  Grid3 acid0(6, 10, 8);
  Rng rng(42);
  for (auto& a : acid0.data()) a = rng.uniform(0.0, 0.9);
  peb::PebSolver solver(params);
  return solver.run(acid0).inhibitor;
}

TEST_F(ParallelTest, PebSolveBitwiseIdenticalAcrossThreadCounts) {
  parallel::set_thread_count(1);
  const Grid3 serial = peb_fingerprint();
  parallel::set_thread_count(4);
  const Grid3 threaded = peb_fingerprint();
  ASSERT_EQ(serial.numel(), threaded.numel());
  for (std::int64_t i = 0; i < serial.numel(); ++i)
    ASSERT_EQ(serial.data()[static_cast<std::size_t>(i)],
              threaded.data()[static_cast<std::size_t>(i)])
        << "voxel " << i;
}

}  // namespace
}  // namespace sdmpeb
