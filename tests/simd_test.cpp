#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/gemm.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/ops.hpp"
#include "nn/value.hpp"
#include "oracle.hpp"
#include "peb/peb_solver.hpp"
#include "peb/tridiag.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;
using nn::Value;
using sdmpeb::testing::expect_bitwise;
using sdmpeb::testing::expect_close;
using sdmpeb::testing::random_tensor;
using sdmpeb::testing::random_vec;
using sdmpeb::testing::run_scan;

/// Restores thread count and kernel backend after each test.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = parallel::thread_count();
    isa_ = simd::active();
  }
  void TearDown() override {
    parallel::set_thread_count(threads_);
    simd::set_active(isa_);
  }
  int threads_ = 1;
  simd::Isa isa_ = simd::Isa::kScalar;
};

/// Run `body` once per kernel backend available on this machine (scalar
/// always; AVX2 when the CPU supports it). The backend is active while the
/// body runs.
void for_each_backend(const std::function<void(simd::Isa)>& body) {
  simd::set_active(simd::Isa::kScalar);
  body(simd::Isa::kScalar);
  if (simd::cpu_has_avx2()) {
    simd::set_active(simd::Isa::kAvx2);
    body(simd::Isa::kAvx2);
  }
}

// ---------------------------------------------------------------------------
// Detection and dispatch plumbing.
// ---------------------------------------------------------------------------

TEST_F(SimdTest, DetectionNamesAndOverride) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_NE(std::string(simd::cpu_feature_string()), "");

  // set_active clamps to what the CPU supports: requesting AVX2 on a host
  // without it stays scalar instead of crashing on the first kernel call.
  simd::set_active(simd::Isa::kAvx2);
  if (simd::cpu_has_avx2()) {
    EXPECT_EQ(simd::active(), simd::Isa::kAvx2);
    EXPECT_NE(simd::gemm_tile_16(), nullptr);
    EXPECT_NE(simd::tridiag_lines(4), nullptr);
    EXPECT_NE(simd::tridiag_lines(8), nullptr);
    EXPECT_EQ(simd::tridiag_lines(5), nullptr);
  } else {
    EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  }
  simd::set_active(simd::Isa::kScalar);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  // Under the scalar backend the vector-only entry points vanish, which is
  // how callers fall back to their scalar paths.
  EXPECT_EQ(simd::gemm_tile_16(), nullptr);
  EXPECT_EQ(simd::tridiag_lines(4), nullptr);
  EXPECT_EQ(simd::tridiag_lines(8), nullptr);
}

// ---------------------------------------------------------------------------
// Arena alignment: every span the workspace arena hands out is 64-byte
// aligned, which the AVX2 kernels rely on only for performance (all loads
// are unaligned-tolerant) but the contract is pinned here regardless.
// ---------------------------------------------------------------------------

TEST_F(SimdTest, ArenaAlignment) {
  static_assert(WorkspaceArena::kAlignment == 64);
  auto& arena = WorkspaceArena::tls();
  WorkspaceArena::Scope scope(arena);
  for (std::int64_t n : {1, 3, 7, 15, 63, 64, 65, 100, 1000, 4099}) {
    const float* f = arena.floats(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f) % WorkspaceArena::kAlignment,
              0u)
        << "floats(" << n << ")";
    const double* d = arena.doubles(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % WorkspaceArena::kAlignment,
              0u)
        << "doubles(" << n << ")";
  }
}

// ---------------------------------------------------------------------------
// Elementwise kernels: bitwise identical ACROSS backends (the strongest tier
// of the DESIGN.md §11 contract). Inputs include negatives, ±0, infinities,
// and denormals; sizes cover every vector/tail split.
// ---------------------------------------------------------------------------

std::vector<float> elementwise_input(std::int64_t n, std::uint64_t seed) {
  auto v = random_vec(n, seed);
  if (n > 0) v[0] = -0.0f;
  if (n > 3) v[3] = 0.0f;
  if (n > 5) v[5] = std::numeric_limits<float>::infinity();
  if (n > 6) v[6] = -std::numeric_limits<float>::infinity();
  if (n > 9) v[9] = std::numeric_limits<float>::denorm_min();
  return v;
}

TEST_F(SimdTest, ElementwiseBitwiseEqualAcrossBackends) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  for (std::int64_t n : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100}) {
    const auto a0 = elementwise_input(n, 11);
    const auto b = elementwise_input(n, 12);
    const auto run = [&](simd::Isa isa, auto&& op) {
      simd::set_active(isa);
      auto dst = a0;
      op(dst);
      return dst;
    };
    const auto check = [&](const char* name, auto&& op) {
      const auto s = run(simd::Isa::kScalar, op);
      const auto v = run(simd::Isa::kAvx2, op);
      EXPECT_EQ(std::memcmp(s.data(), v.data(), s.size() * sizeof(float)), 0)
          << name << " n=" << n;
    };
    check("vadd", [&](std::vector<float>& d) {
      simd::vadd(d.data(), b.data(), n);
    });
    check("vsub", [&](std::vector<float>& d) {
      simd::vsub(d.data(), b.data(), n);
    });
    check("vmul", [&](std::vector<float>& d) {
      simd::vmul(d.data(), b.data(), n);
    });
    check("vscale", [&](std::vector<float>& d) {
      simd::vscale(d.data(), 0.37f, n);
    });
    check("vaxpy", [&](std::vector<float>& d) {
      simd::vaxpy(d.data(), b.data(), -1.13f, n);
    });
    check("vmul_add", [&](std::vector<float>& d) {
      simd::vmul_add(d.data(), b.data(), b.data(), n);
    });
    check("vrelu", [&](std::vector<float>& d) {
      simd::vrelu(d.data(), d.data(), n);
    });
    check("vrelu_bwd", [&](std::vector<float>& d) {
      simd::vrelu_bwd(d.data(), b.data(), b.data(), n);
    });
    check("vleaky_relu", [&](std::vector<float>& d) {
      simd::vleaky_relu(d.data(), d.data(), 0.01f, n);
    });
    check("vleaky_relu_bwd", [&](std::vector<float>& d) {
      simd::vleaky_relu_bwd(d.data(), b.data(), b.data(), 0.01f, n);
    });
  }
}

// ---------------------------------------------------------------------------
// GEMM: bitwise deterministic per backend at any thread count; AVX2 agrees
// with the naive oracle to float tolerance, including shapes that are not
// multiples of either microtile (6x8 scalar, 6x16 AVX2) and strided outputs.
// ---------------------------------------------------------------------------

struct GemmCase {
  std::int64_t m, n, k;
  bool ta, tb;
  float beta;
};

const GemmCase kGemmCases[] = {
    {1, 1, 1, false, false, 0.0f},    {5, 7, 9, false, false, 0.0f},
    {6, 16, 32, false, false, 0.0f},  {7, 17, 33, false, false, 0.0f},
    {13, 31, 64, true, false, 0.0f},  {37, 29, 53, false, true, 0.5f},
    {12, 48, 48, true, true, 1.0f},   {64, 64, 64, false, false, 0.0f},
};

std::vector<float> run_gemm(const GemmCase& t, std::uint64_t seed) {
  const auto lda = t.ta ? t.m : t.k;
  const auto ldb = t.tb ? t.k : t.n;
  const auto a = random_vec((t.ta ? t.k : t.m) * lda, seed);
  const auto b = random_vec((t.tb ? t.n : t.k) * ldb, seed + 1);
  auto c = random_vec(t.m * t.n, seed + 2);
  gemm::gemm(t.m, t.n, t.k, a.data(), lda, t.ta, b.data(), ldb, t.tb,
             c.data(), t.n, t.beta);
  return c;
}

TEST_F(SimdTest, GemmBitwiseDeterministicPerBackendAcrossThreadCounts) {
  for_each_backend([&](simd::Isa isa) {
    for (const auto& t : kGemmCases) {
      parallel::set_thread_count(1);
      const auto c1 = run_gemm(t, 21);
      parallel::set_thread_count(3);
      const auto c3 = run_gemm(t, 21);
      EXPECT_EQ(std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(float)),
                0)
          << simd::isa_name(isa) << " m=" << t.m << " n=" << t.n
          << " k=" << t.k;
    }
  });
}

TEST_F(SimdTest, GemmAvx2MatchesNaiveWithinTolerance) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  simd::set_active(simd::Isa::kAvx2);
  for (const auto& t : kGemmCases) {
    const auto lda = t.ta ? t.m : t.k;
    const auto ldb = t.tb ? t.k : t.n;
    const auto a = random_vec((t.ta ? t.k : t.m) * lda, 31);
    const auto b = random_vec((t.tb ? t.n : t.k) * ldb, 32);
    auto c_ref = random_vec(t.m * t.n, 33);
    auto c_vec = c_ref;
    oracle::gemm(t.m, t.n, t.k, a.data(), lda, t.ta, b.data(), ldb, t.tb,
                 c_ref.data(), t.n, t.beta);
    gemm::gemm(t.m, t.n, t.k, a.data(), lda, t.ta, b.data(), ldb, t.tb,
               c_vec.data(), t.n, t.beta);
    const float tol =
        1e-5f * static_cast<float>(t.k) + 1e-5f;
    for (std::size_t i = 0; i < c_ref.size(); ++i)
      ASSERT_NEAR(c_ref[i], c_vec[i], tol)
          << "m=" << t.m << " n=" << t.n << " k=" << t.k << " i=" << i;
  }
}

TEST_F(SimdTest, GemmAvx2StridedOutputLeavesGuardColumnsUntouched) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // Guard columns exercise the masked edge stores: n is not a multiple of
  // 16, so the last column block writes through a maskstore that must not
  // touch the (ldc - n) guard columns.
  simd::set_active(simd::Isa::kAvx2);
  const std::int64_t m = 13, n = 21, k = 40, ldc = 29;
  const auto a = random_vec(m * k, 41);
  const auto b = random_vec(k * n, 42);
  std::vector<float> c(static_cast<std::size_t>(m * ldc), 12345.0f);
  gemm::gemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), ldc,
             0.0f);
  for (std::int64_t r = 0; r < m; ++r)
    for (std::int64_t j = n; j < ldc; ++j)
      ASSERT_EQ(c[static_cast<std::size_t>(r * ldc + j)], 12345.0f)
          << "guard overwritten at row " << r << " col " << j;
}

// ---------------------------------------------------------------------------
// Depthwise conv and layer norm through the autograd ops: per-backend
// bitwise thread-count determinism for forward AND gradients, plus
// cross-backend tolerance.
// ---------------------------------------------------------------------------

struct DwconvRun {
  Tensor out, gx, gw;
};

DwconvRun run_dwconv3d() {
  const auto x0 = random_tensor(Shape{3, 5, 11, 13}, 51);
  const auto w0 = random_tensor(Shape{3, 3, 3, 3}, 52);
  const auto b0 = random_tensor(Shape{3}, 53);
  auto x = nn::make_value(x0, true);
  auto w = nn::make_value(w0, true);
  auto b = nn::make_value(b0, false);
  auto y = nnops::dwconv3d(x, w, b, 1);
  nn::backward(nnops::sum(nnops::square(y)));
  return {y->value(), x->grad(), w->grad()};
}

DwconvRun run_dwconv1d() {
  const auto x0 = random_tensor(Shape{33, 17}, 54);
  const auto w0 = random_tensor(Shape{17, 5}, 55);
  const auto b0 = random_tensor(Shape{17}, 56);
  auto x = nn::make_value(x0, true);
  auto w = nn::make_value(w0, true);
  auto b = nn::make_value(b0, false);
  auto y = nnops::dwconv1d_seq(x, w, b);
  nn::backward(nnops::sum(nnops::square(y)));
  return {y->value(), x->grad(), w->grad()};
}

DwconvRun run_layer_norm() {
  const auto x0 = random_tensor(Shape{9, 37}, 57);
  const auto g0 = random_tensor(Shape{37}, 58);
  const auto b0 = random_tensor(Shape{37}, 59);
  auto x = nn::make_value(x0, true);
  auto g = nn::make_value(g0, true);
  auto b = nn::make_value(b0, false);
  auto y = nnops::layer_norm(x, g, b, 1e-5f);
  nn::backward(nnops::sum(nnops::square(y)));
  return {y->value(), x->grad(), g->grad()};
}

void expect_run_bitwise_across_threads(DwconvRun (*run)(), const char* what) {
  for_each_backend([&](simd::Isa isa) {
    parallel::set_thread_count(1);
    const auto r1 = run();
    parallel::set_thread_count(3);
    const auto r3 = run();
    const std::string tag = std::string(what) + " " + simd::isa_name(isa);
    expect_bitwise(r1.out, r3.out, tag + " out");
    expect_bitwise(r1.gx, r3.gx, tag + " gx");
    expect_bitwise(r1.gw, r3.gw, tag + " gw");
  });
}

void expect_run_close_across_backends(DwconvRun (*run)(), float tol,
                                      const char* what) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  simd::set_active(simd::Isa::kScalar);
  const auto rs = run();
  simd::set_active(simd::Isa::kAvx2);
  const auto rv = run();
  const std::string tag = what;
  expect_close(rs.out, rv.out, tol, tag + " out");
  expect_close(rs.gx, rv.gx, tol, tag + " gx");
  expect_close(rs.gw, rv.gw, tol, tag + " gw");
}

TEST_F(SimdTest, Dwconv3dBitwiseDeterministicPerBackend) {
  expect_run_bitwise_across_threads(&run_dwconv3d, "dwconv3d");
}

TEST_F(SimdTest, Dwconv1dBitwiseDeterministicPerBackend) {
  expect_run_bitwise_across_threads(&run_dwconv1d, "dwconv1d");
}

TEST_F(SimdTest, LayerNormBitwiseDeterministicPerBackend) {
  expect_run_bitwise_across_threads(&run_layer_norm, "layer_norm");
}

TEST_F(SimdTest, Dwconv3dBackendsAgreeWithinTolerance) {
  expect_run_close_across_backends(&run_dwconv3d, 1e-4f, "dwconv3d");
}

TEST_F(SimdTest, Dwconv1dBackendsAgreeWithinTolerance) {
  expect_run_close_across_backends(&run_dwconv1d, 1e-4f, "dwconv1d");
}

TEST_F(SimdTest, LayerNormBackendsAgreeWithinTolerance) {
  expect_run_close_across_backends(&run_layer_norm, 1e-4f, "layer_norm");
}

// ---------------------------------------------------------------------------
// Selective scan: the AVX2 kernel (N = 8, 8-lane exp, FMA) against the
// scalar reference, the trajectory-free inference path against the stored
// trajectory, and the fused Δ against the unfused graph it replaces.
// ---------------------------------------------------------------------------

/// Cross-backend tolerance of the scan, relative to max(1, |value|). The
/// 8-lane exp is within 2 ulp of std::exp and the state update is one FMA;
/// the largest difference seen here is about 1e-6 relative.
constexpr float kScanTol = 1e-4f;

TEST_F(SimdTest, ScanTrajectoryFreeMatchesTrajectoryPath) {
  for_each_backend([&](simd::Isa isa) {
    for (const std::int64_t states : {8, 4})
      for (const bool fused : {true, false}) {
        SCOPED_TRACE(::testing::Message() << simd::isa_name(isa) << " N="
                                          << states << " fused=" << fused);
        expect_bitwise(run_scan(states, fused, false).out,
                       run_scan(states, fused, true).out);
      }
  });
}

TEST_F(SimdTest, ScanBackendsAgreeWithinTolerance) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  for (const std::int64_t states : {8, 4})
    for (const bool fused : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "N=" << states
                                        << " fused=" << fused);
      simd::set_active(simd::Isa::kScalar);
      const auto rs = run_scan(states, fused, true);
      simd::set_active(simd::Isa::kAvx2);
      const auto rv = run_scan(states, fused, true);
      expect_close(rv.out, rs.out, kScanTol, "out");
      for (std::size_t i = 0; i < rs.grads.size(); ++i)
        expect_close(rv.grads[i], rs.grads[i], kScanTol,
                     "grad " + std::to_string(i));
    }
}

// The unfused Eq. 11 broadcasts Δ's column and bias with K = 1 matmuls,
// adds and applies softplus. Those matmuls only copy values, so the fused
// op reproduces the graph's output and every gradient bit for bit.
TEST_F(SimdTest, ScanFusedDeltaMatchesUnfusedGraph) {
  constexpr std::int64_t kLen = 50, kChannels = 6, kStates = 8;
  const std::vector<Tensor> inputs = {
      random_tensor(Shape{kLen, kChannels}, 81),
      random_tensor(Shape{kLen, 1}, 82, -3.0f, 1.0f),
      random_tensor(Shape{1, kChannels}, 83, -2.0f, 0.0f),
      random_tensor(Shape{kChannels, kStates}, 84, -0.5f, 2.0f),
      random_tensor(Shape{kLen, kStates}, 85),
      random_tensor(Shape{kLen, kStates}, 86),
      random_tensor(Shape{kChannels}, 87)};
  const auto run = [&](bool fused) {
    std::vector<Value> v;
    for (const auto& t : inputs) v.push_back(nn::make_value(t, true));
    Value y;
    if (fused) {
      y = nnops::selective_scan(v[0], v[1], v[2], v[3], v[4], v[5], v[6]);
    } else {
      const auto ones_row =
          nn::constant(Tensor::full(Shape{1, kChannels}, 1.0f));
      const auto ones_col = nn::constant(Tensor::full(Shape{kLen, 1}, 1.0f));
      const auto delta = nnops::softplus(nnops::add(
          nnops::matmul(v[1], ones_row), nnops::matmul(ones_col, v[2])));
      y = nnops::selective_scan(v[0], delta, v[3], v[4], v[5], v[6]);
    }
    nn::backward(nnops::sum(nnops::square(y)));
    std::vector<Tensor> result = {y->value()};
    for (const auto& leaf : v) result.push_back(leaf->grad());
    return result;
  };
  for_each_backend([&](simd::Isa isa) {
    const auto fused = run(true);
    const auto unfused = run(false);
    for (std::size_t i = 0; i < fused.size(); ++i)
      expect_bitwise(fused[i], unfused[i],
                     std::string(simd::isa_name(isa)) + " tensor " +
                         std::to_string(i));
  });
}

// ---------------------------------------------------------------------------
// ADI tridiagonal line batches: the 8-lane (two interleaved groups) and
// 4-lane kernels must reproduce the scalar per-lane substitution BITWISE
// for any lane count 1..8 (full groups, a group plus scalar lanes, scalar
// lanes alone) in both line geometries: contiguous lanes, as in the z/y
// sweeps, and strided lanes as in the x sweep. A full PEB bake must stay
// bitwise thread-count deterministic per backend.
// ---------------------------------------------------------------------------

void run_adi_lanes(std::int64_t n, std::int64_t elem_stride,
                   std::int64_t lane_stride, int lanes,
                   std::vector<double>& data) {
  std::vector<double> sub(n), diag(n), sup(n);
  Rng rng(61);
  for (std::int64_t i = 0; i < n; ++i) {
    sub[i] = rng.uniform(-1.0, 1.0);
    sup[i] = rng.uniform(-1.0, 1.0);
    diag[i] = 3.0 + rng.uniform(0.0, 1.0);
  }
  peb::TridiagFactors factors;
  factors.factor(sub, diag, sup);
  std::vector<double> d_scratch(static_cast<std::size_t>(lanes * n));
  peb::adi_solve_lines(factors, n, data.data(), elem_stride, lane_stride,
                       lanes, 0.25, d_scratch);
}

TEST_F(SimdTest, AdiLines4MatchesScalarInBothGeometries) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::int64_t n = 19;
  struct Geometry {
    std::int64_t elem_stride, lane_stride;
  };
  for (int lanes = 1; lanes <= peb::kAdiMaxLanes; ++lanes) {
    // elem_stride = lanes, lane_stride 1: z- and y-sweep layout (lanes
    // contiguous). elem_stride 1, lane_stride n: x-sweep layout (lanes
    // strided).
    for (const Geometry geo : {Geometry{lanes, 1}, Geometry{1, n}}) {
      std::vector<double> grid(static_cast<std::size_t>(lanes * n));
      Rng rng(62);
      for (auto& v : grid) v = rng.uniform(-0.2, 1.0);
      auto scalar_grid = grid;
      auto vector_grid = grid;
      simd::set_active(simd::Isa::kScalar);
      run_adi_lanes(n, geo.elem_stride, geo.lane_stride, lanes, scalar_grid);
      simd::set_active(simd::Isa::kAvx2);
      run_adi_lanes(n, geo.elem_stride, geo.lane_stride, lanes, vector_grid);
      EXPECT_EQ(std::memcmp(scalar_grid.data(), vector_grid.data(),
                            grid.size() * sizeof(double)),
                0)
          << lanes << " lanes, elem_stride " << geo.elem_stride;
      // The clamp is part of the contract: no negative concentrations.
      for (double v : vector_grid) ASSERT_GE(v, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// PEB reaction pass. The scalar kernel is the pre-kernel solver loop
// (oracle::peb_reaction) bit for bit; AVX2 differs from it only through
// exp4d. Inputs cover the |u| < 1e-12 branch (u = 0 and |u| = 5e-13), the
// first u outside it, b0 = 0, a0 = 0 and every vector/tail split.
// ---------------------------------------------------------------------------

constexpr double kTableIHalfStep = 0.05;

/// AVX2 against scalar, relative to max(1, |scalar|): the bound each of
/// the three outputs must meet. exp4d is within 1 ulp of std::exp, and the
/// neutralisation's a0 - b0 * decay can amplify that ulp where |u| is small
/// but outside the 1e-12 branch, hence the headroom. The largest difference
/// PebReactionAvx2WithinToleranceOfScalar measures (its "max_rel_diff"
/// property) is 3.9e-16.
constexpr double kReactionTol = 1e-13;

struct ReactionFields {
  std::vector<double> acid, base, inhibitor;
};

ReactionFields reaction_input(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  ReactionFields f;
  for (std::int64_t i = 0; i < n; ++i) {
    double a = rng.uniform(0.0, 0.95);
    double b = rng.uniform(0.0, 0.5);
    switch (i % 7) {
      case 0: b = a; break;           // u = 0
      case 1: b = a - 5e-13; break;   // |u| < 1e-12, u > 0
      case 2: b = 0.0; break;
      case 3: a = 0.0; break;
      case 4: b = a + 2e-12; break;   // just outside the branch
      default: break;
    }
    f.acid.push_back(a);
    f.base.push_back(b);
    f.inhibitor.push_back(rng.uniform(0.0, 1.0));
  }
  return f;
}

/// One kernel call over [i0, i1), out of place into `out` (resized to the
/// input) or, when out == &in, in place.
bool react(const ReactionFields& in, ReactionFields& out, double dt,
           std::int64_t i0, std::int64_t i1, bool check = true) {
  if (&out != &in) {
    out.acid.resize(in.acid.size());
    out.base.resize(in.base.size());
    out.inhibitor.resize(in.inhibitor.size());
  }
  simd::PebReaction r;
  r.acid_in = in.acid.data();
  r.base_in = in.base.data();
  r.inhibitor_in = in.inhibitor.data();
  r.acid_out = out.acid.data();
  r.base_out = out.base.data();
  r.inhibitor_out = out.inhibitor.data();
  const peb::PebParams table_i;
  r.kr = table_i.reaction_coeff;
  r.kc = table_i.catalysis_coeff;
  r.dt = dt;
  r.check = check;
  r.limit = 1e6;
  return simd::peb_reaction(r, i0, i1);
}

bool react_all(const ReactionFields& in, ReactionFields& out, double dt,
               bool check = true) {
  return react(in, out, dt, 0, static_cast<std::int64_t>(in.acid.size()),
               check);
}

void expect_fields_bitwise(const ReactionFields& a, const ReactionFields& b,
                           const std::string& what) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(a.acid, b.acid)) << what << " acid";
  EXPECT_TRUE(same(a.base, b.base)) << what << " base";
  EXPECT_TRUE(same(a.inhibitor, b.inhibitor)) << what << " inhibitor";
}

/// `f` with one value of one species (0 acid, 1 base, 2 inhibitor) set.
ReactionFields poisoned(ReactionFields f, int field, std::int64_t at,
                        double value) {
  auto& target = field == 0 ? f.acid : (field == 1 ? f.base : f.inhibitor);
  target[static_cast<std::size_t>(at)] = value;
  return f;
}

const std::int64_t kReactionLengths[] = {1,  2,  3,  4,    5,    6,
                                         7,  8,  13, 64, 1027, 16384};

TEST_F(SimdTest, PebReactionScalarMatchesPreKernelLoopBitwise) {
  simd::set_active(simd::Isa::kScalar);
  const peb::PebParams table_i;
  for (const double dt : {kTableIHalfStep, kTableIHalfStep / 16.0})
    for (const std::int64_t n : kReactionLengths) {
      const auto in = reaction_input(n, 90 + static_cast<std::uint64_t>(n));
      ReactionFields want = in;
      oracle::peb_reaction(want.acid, want.base, want.inhibitor,
                           table_i.reaction_coeff, table_i.catalysis_coeff,
                           dt);
      const std::string what =
          "n=" + std::to_string(n) + " dt=" + std::to_string(dt);
      ReactionFields out;
      EXPECT_TRUE(react_all(in, out, dt));
      expect_fields_bitwise(out, want, what + " out of place");
      ReactionFields inplace = in;
      EXPECT_TRUE(react_all(inplace, inplace, dt));
      expect_fields_bitwise(inplace, want, what + " in place");
    }
}

TEST_F(SimdTest, PebReactionAvx2WithinToleranceOfScalar) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  double worst = 0.0;
  for (const double dt : {kTableIHalfStep, kTableIHalfStep / 16.0, 1.0})
    for (const std::int64_t n : kReactionLengths) {
      const auto in = reaction_input(n, 190 + static_cast<std::uint64_t>(n));
      ReactionFields scalar, vec;
      simd::set_active(simd::Isa::kScalar);
      react_all(in, scalar, dt);
      simd::set_active(simd::Isa::kAvx2);
      react_all(in, vec, dt);
      const auto compare = [&](const std::vector<double>& s,
                               const std::vector<double>& v,
                               const char* what) {
        for (std::size_t i = 0; i < s.size(); ++i) {
          const double rel =
              std::abs(v[i] - s[i]) / std::max(1.0, std::abs(s[i]));
          worst = std::max(worst, rel);
          ASSERT_LE(rel, kReactionTol)
              << what << " n=" << n << " dt=" << dt << " i=" << i;
        }
      };
      compare(scalar.acid, vec.acid, "acid");
      compare(scalar.base, vec.base, "base");
      compare(scalar.inhibitor, vec.inhibitor, "inhibitor");

      // In place writes what out of place writes, and a voxel's result does
      // not depend on where a call's range ends (the masked tail runs the
      // vector body's ops).
      ReactionFields inplace = in;
      react_all(inplace, inplace, dt);
      expect_fields_bitwise(inplace, vec, "avx2 in place n=" +
                                              std::to_string(n));
      ReactionFields split;
      react(in, split, dt, 0, n / 2);
      react(in, split, dt, n / 2, n);
      expect_fields_bitwise(split, vec, "avx2 split n=" + std::to_string(n));
    }
  std::ostringstream measured;
  measured << worst;
  RecordProperty("max_rel_diff", measured.str());
}

TEST_F(SimdTest, PebReactionVerdictFlagsNonFiniteAndRunawayValues) {
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), 2e6};
  for_each_backend([&](simd::Isa isa) {
    // n % 4 = 0..3; index 1 sits in the vector body, n - 1 in the tail
    // whenever n % 4 != 0.
    for (const std::int64_t n : {8, 9, 10, 11}) {
      const auto clean = reaction_input(n, 300 + static_cast<std::uint64_t>(n));
      ReactionFields out;
      EXPECT_TRUE(react_all(clean, out, kTableIHalfStep))
          << simd::isa_name(isa) << " n=" << n;
      for (const std::int64_t at : {std::int64_t{1}, n - 1})
        for (const double poison : poisons)
          for (int field = 0; field < 3; ++field) {
            auto in = poisoned(clean, field, at, poison);
            const std::string what = std::string(simd::isa_name(isa)) +
                                     " n=" + std::to_string(n) +
                                     " at=" + std::to_string(at) +
                                     " field=" + std::to_string(field) +
                                     " value=" + std::to_string(poison);
            EXPECT_FALSE(react_all(in, out, kTableIHalfStep)) << what;
            // Unchecked, the pass reports nothing.
            EXPECT_TRUE(react_all(in, out, kTableIHalfStep, false))
                << what << " unchecked";
            EXPECT_FALSE(react_all(in, in, kTableIHalfStep))
                << what << " in place";
          }
    }
  });
}

TEST_F(SimdTest, PebReactionClampPropagatesNan) {
  // std::max(NaN, 0.0) and max_pd(0, NaN) both return the NaN: a poisoned
  // acid cell must stay poisoned in every species, never clamp to 0.
  for_each_backend([&](simd::Isa isa) {
    for (const std::int64_t n : {8, 11}) {
      for (const std::int64_t at : {std::int64_t{2}, n - 1}) {
        const auto in =
            poisoned(reaction_input(n, 400 + static_cast<std::uint64_t>(n)),
                     0, at, std::numeric_limits<double>::quiet_NaN());
        ReactionFields out;
        react_all(in, out, kTableIHalfStep);
        const auto i = static_cast<std::size_t>(at);
        EXPECT_TRUE(std::isnan(out.acid[i])) << simd::isa_name(isa) << at;
        EXPECT_TRUE(std::isnan(out.base[i])) << simd::isa_name(isa) << at;
        EXPECT_TRUE(std::isnan(out.inhibitor[i]))
            << simd::isa_name(isa) << at;
      }
    }
  });
}

peb::PebState run_small_bake() {
  peb::PebParams p;
  p.duration_s = 0.5;
  peb::PebSolver solver(p);
  Grid3 acid0(6, 7, 9);
  Rng rng(63);
  for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
  return solver.run(acid0);
}

void expect_grids_equal(const Grid3& a, const Grid3& b, double tol,
                        const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  const auto sa = a.data();
  const auto sb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(sa[static_cast<std::size_t>(i)],
                sb[static_cast<std::size_t>(i)], tol)
        << what << " at " << i;
}

TEST_F(SimdTest, PebBakeBitwiseDeterministicPerBackend) {
  for_each_backend([&](simd::Isa isa) {
    parallel::set_thread_count(1);
    const auto s1 = run_small_bake();
    parallel::set_thread_count(3);
    const auto s3 = run_small_bake();
    const auto bitwise = [&](const Grid3& a, const Grid3& b,
                             const char* what) {
      ASSERT_EQ(a.numel(), b.numel());
      EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                            static_cast<std::size_t>(a.numel()) *
                                sizeof(double)),
                0)
          << what << " under " << simd::isa_name(isa);
    };
    bitwise(s1.acid, s3.acid, "acid");
    bitwise(s1.base, s3.base, "base");
    bitwise(s1.inhibitor, s3.inhibitor, "inhibitor");
  });
}

TEST_F(SimdTest, PebBakeBackendsAgreeWithinTolerance) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  simd::set_active(simd::Isa::kScalar);
  const auto ss = run_small_bake();
  simd::set_active(simd::Isa::kAvx2);
  const auto sv = run_small_bake();
  // The ADI sweeps are bitwise equal across backends and the reaction
  // differs only through exp4d (within 1 ulp of std::exp), so the
  // tolerance is near machine epsilon rather than a loose bound.
  expect_grids_equal(ss.acid, sv.acid, 1e-12, "acid");
  expect_grids_equal(ss.base, sv.base, 1e-12, "base");
  expect_grids_equal(ss.inhibitor, sv.inhibitor, 1e-12, "inhibitor");
}

}  // namespace
}  // namespace sdmpeb
