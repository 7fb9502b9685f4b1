// Property-based tests: invariants that must hold across parameter sweeps,
// exercised with TEST_P suites.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/label_transform.hpp"
#include "core/sdm_unit.hpp"
#include "develop/eikonal.hpp"
#include "nn/ops.hpp"
#include "peb/peb_solver.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;

// ---------------------------------------------------------------------------
// PEB solver: mass conservation holds for ANY diffusion length when the box
// is closed (zero-flux everywhere, reactions off).
// ---------------------------------------------------------------------------

class PebMassConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(PebMassConservationTest, ClosedBoxConservesAcid) {
  peb::PebParams params;
  params.catalysis_coeff = 0.0;
  params.reaction_coeff = 0.0;
  params.transfer_coeff_acid = 0.0;
  params.base0 = 0.0;
  params.normal_diff_len_acid_nm = GetParam();
  params.lateral_diff_len_acid_nm = GetParam() / 2.0;
  params.duration_s = 3.0;
  const peb::PebSolver solver(params);
  Grid3 acid0(6, 6, 6, 0.0);
  acid0.at(2, 3, 3) = 0.7;
  acid0.at(3, 2, 1) = 0.3;
  auto state = solver.initial_state(acid0);
  for (int i = 0; i < 10; ++i) solver.step(state);
  double mass = 0.0;
  for (double v : state.acid.data()) mass += v;
  EXPECT_NEAR(mass, 1.0, 1e-9) << "L = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(DiffusionLengths, PebMassConservationTest,
                         ::testing::Values(5.0, 20.0, 70.0, 150.0));

// ---------------------------------------------------------------------------
// PEB solver: the inhibitor never increases (deprotection is one-way), for
// any acid level.
// ---------------------------------------------------------------------------

class PebMonotoneInhibitorTest : public ::testing::TestWithParam<double> {};

TEST_P(PebMonotoneInhibitorTest, InhibitorNonIncreasingOverTime) {
  peb::PebParams params;
  params.duration_s = 6.0;
  const peb::PebSolver solver(params);
  Grid3 acid0(4, 6, 6, GetParam());
  auto state = solver.initial_state(acid0);
  Grid3 prev = state.inhibitor;
  for (int step = 0; step < 20; ++step) {
    solver.step(state);
    for (std::size_t i = 0; i < prev.data().size(); ++i)
      ASSERT_LE(state.inhibitor.data()[i], prev.data()[i] + 1e-12);
    prev = state.inhibitor;
  }
}

INSTANTIATE_TEST_SUITE_P(AcidLevels, PebMonotoneInhibitorTest,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9));

// ---------------------------------------------------------------------------
// Label transform: monotone bijection for any valid kc / standardisation.
// ---------------------------------------------------------------------------

struct TransformCase {
  double kc;
  double offset;
  double scale;
};

/// Names each instance by its values (e.g. kc0.9_offset6_scale0.25), not
/// by the struct's raw bytes.
void PrintTo(const TransformCase& c, std::ostream* os) {
  *os << "kc" << c.kc << "_offset" << c.offset << "_scale" << c.scale;
}

class LabelTransformPropertyTest
    : public ::testing::TestWithParam<TransformCase> {};

TEST_P(LabelTransformPropertyTest, RoundTripAndMonotonicity) {
  core::LabelTransform t;
  t.kc = GetParam().kc;
  t.offset = GetParam().offset;
  t.scale = GetParam().scale;
  double prev_label = -1e300;
  for (double inhibitor = 0.01; inhibitor < 0.999; inhibitor += 0.05) {
    const double label = t.to_label(inhibitor);
    EXPECT_NEAR(t.to_inhibitor(label), inhibitor, 1e-8);
    if (t.scale > 0.0) {
      EXPECT_GT(label, prev_label);  // monotone increasing in inhibitor
      prev_label = label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transforms, LabelTransformPropertyTest,
    ::testing::Values(TransformCase{0.9, 0.0, 1.0},
                      TransformCase{0.9, 6.0, 0.25},
                      TransformCase{0.5, 2.0, 0.5},
                      TransformCase{2.0, -1.0, 1.5}));

// ---------------------------------------------------------------------------
// Selective scan: causality. y_t must not depend on x_s for s > t.
// ---------------------------------------------------------------------------

class ScanCausalityTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScanCausalityTest, OutputIsCausal) {
  const auto seq = GetParam();
  const std::int64_t channels = 3, states = 4;
  Rng rng(seq);
  const Tensor x0 = Tensor::uniform(Shape{seq, channels}, rng);
  const Tensor dv = Tensor::uniform(Shape{seq, channels}, rng, 0.05f, 0.2f);
  const Tensor av = Tensor::uniform(Shape{channels, states}, rng, -1.0f, 0.0f);
  const Tensor bv = Tensor::uniform(Shape{seq, states}, rng);
  const Tensor cv = Tensor::uniform(Shape{seq, states}, rng);
  const Tensor skip = Tensor::full(Shape{channels}, 1.0f);

  const auto run = [&](const Tensor& x) {
    return nnops::selective_scan(nn::constant(x), nn::constant(dv),
                                 nn::constant(av), nn::constant(bv),
                                 nn::constant(cv), nn::constant(skip))
        ->value();
  };
  const Tensor y0 = run(x0);
  Tensor x1 = x0;
  // Perturb the last timestep only.
  for (std::int64_t c = 0; c < channels; ++c)
    x1.at(seq - 1, c) += 1.0f;
  const Tensor y1 = run(x1);
  for (std::int64_t t = 0; t < seq - 1; ++t)
    for (std::int64_t c = 0; c < channels; ++c)
      EXPECT_FLOAT_EQ(y0.at(t, c), y1.at(t, c)) << "t=" << t;
  // ... and the final step does change.
  float diff = 0.0f;
  for (std::int64_t c = 0; c < channels; ++c)
    diff += std::abs(y0.at(seq - 1, c) - y1.at(seq - 1, c));
  EXPECT_GT(diff, 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ScanCausalityTest,
                         ::testing::Values(2, 5, 16, 64));

// ---------------------------------------------------------------------------
// Selective scan: stability. Bounded input -> bounded output for any
// positive delta (A = -exp(a_log) keeps |exp(dt A)| < 1).
// ---------------------------------------------------------------------------

class ScanStabilityTest : public ::testing::TestWithParam<float> {};

TEST_P(ScanStabilityTest, LongSequenceStaysBounded) {
  const std::int64_t seq = 512, channels = 2, states = 4;
  Rng rng(17);
  const Tensor x = Tensor::uniform(Shape{seq, channels}, rng, -1.0f, 1.0f);
  const Tensor dv = Tensor::full(Shape{seq, channels}, GetParam());
  const Tensor av = Tensor::zeros(Shape{channels, states});  // A = -1
  const Tensor bv = Tensor::full(Shape{seq, states}, 1.0f);
  const Tensor cv = Tensor::full(Shape{seq, states}, 1.0f);
  const Tensor skip = Tensor::full(Shape{channels}, 1.0f);
  const Tensor y = nnops::selective_scan(
                       nn::constant(x), nn::constant(dv), nn::constant(av),
                       nn::constant(bv), nn::constant(cv), nn::constant(skip))
                       ->value();
  // Geometric-series bound: |h| <= dt / (1 - exp(-dt)), |y| <= N |h| + |x|.
  const float dt = GetParam();
  const float h_bound = dt / (1.0f - std::exp(-dt));
  EXPECT_LE(y.abs_max(), states * h_bound + 1.0f + 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Deltas, ScanStabilityTest,
                         ::testing::Values(0.01f, 0.1f, 1.0f, 10.0f));

// ---------------------------------------------------------------------------
// Eikonal: arrival times are monotone non-decreasing in depth for a
// laterally uniform medium, for any rate profile.
// ---------------------------------------------------------------------------

class EikonalMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(EikonalMonotoneTest, DepthArrivalMonotoneForUniformLayers) {
  Rng rng(GetParam());
  const std::int64_t depth = 10;
  Grid3 rate(depth, 4, 4);
  for (std::int64_t d = 0; d < depth; ++d) {
    const double layer_rate = rng.uniform(0.5, 40.0);
    for (std::int64_t h = 0; h < 4; ++h)
      for (std::int64_t w = 0; w < 4; ++w) rate.at(d, h, w) = layer_rate;
  }
  const auto arrival = develop::solve_development_front(
      rate, develop::EikonalSpacing{1.0, 1.0, 1.0});
  for (std::int64_t d = 1; d < depth; ++d)
    EXPECT_GE(arrival.at(d, 2, 2), arrival.at(d - 1, 2, 2) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EikonalMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Softmax rows: probabilities sum to one for any temperature.
// ---------------------------------------------------------------------------

class SoftmaxTemperatureTest : public ::testing::TestWithParam<float> {};

TEST_P(SoftmaxTemperatureTest, RowsSumToOne) {
  Rng rng(23);
  auto x = nn::constant(Tensor::uniform(Shape{5, 7}, rng, -3.0f, 3.0f));
  const Tensor p = nnops::softmax_rows(x, GetParam())->value();
  for (std::int64_t r = 0; r < 5; ++r) {
    double total = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) {
      EXPECT_GE(p.at(r, c), 0.0f);
      total += p.at(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST_P(SoftmaxTemperatureTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(29);
  const Tensor xt = Tensor::uniform(Shape{3, 5}, rng, -2.0f, 2.0f);
  const Tensor p = nnops::softmax_rows(nn::constant(xt), GetParam())->value();
  const Tensor lp =
      nnops::log_softmax_rows(nn::constant(xt), GetParam())->value();
  for (std::int64_t i = 0; i < p.numel(); ++i)
    EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SoftmaxTemperatureTest,
                         ::testing::Values(0.1f, 0.5f, 1.0f, 4.0f));

// ---------------------------------------------------------------------------
// SDM unit directions: reversing the depth axis of the input and the output
// of a forward-only branch equals running the backward branch — verified at
// the whole-unit level: the 3-direction unit is NOT depth-reversal
// equivariant (the spatial scan breaks the symmetry), while each gather
// pair must round-trip exactly.
// ---------------------------------------------------------------------------

TEST(GatherRows, PermutationRoundTripsExactly) {
  Rng rng(31);
  const std::int64_t rows = 24;
  const Tensor xt = Tensor::uniform(Shape{rows, 3}, rng);
  std::vector<std::int64_t> perm(rows);
  for (std::int64_t i = 0; i < rows; ++i) perm[i] = rows - 1 - i;
  auto x = nn::constant(xt);
  const Tensor y =
      nnops::gather_rows(nnops::gather_rows(x, perm), perm)->value();
  for (std::int64_t i = 0; i < xt.numel(); ++i) EXPECT_FLOAT_EQ(y[i], xt[i]);
}

}  // namespace
}  // namespace sdmpeb
