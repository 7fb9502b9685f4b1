#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "develop/eikonal.hpp"
#include "develop/mack.hpp"
#include "develop/profile.hpp"

namespace sdmpeb::develop {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Mack, TableIDefaults) {
  const MackParams p;
  EXPECT_DOUBLE_EQ(p.r_max_nm_s, 40.0);
  EXPECT_DOUBLE_EQ(p.r_min_nm_s, 0.0003);
  EXPECT_DOUBLE_EQ(p.m_threshold, 0.5);
  EXPECT_DOUBLE_EQ(p.reaction_order, 30.0);
  EXPECT_DOUBLE_EQ(p.develop_time_s, 60.0);
}

TEST(Mack, EndpointRates) {
  const MackParams p;
  // Fully deprotected (m = 0) develops at ~Rmax; fully protected at ~Rmin.
  EXPECT_NEAR(mack_rate(0.0, p), p.r_max_nm_s + p.r_min_nm_s, 1e-6);
  EXPECT_NEAR(mack_rate(1.0, p), p.r_min_nm_s, 1e-9);
}

TEST(Mack, MonotoneDecreasingInInhibitor) {
  const MackParams p;
  double prev = mack_rate(0.0, p);
  for (double m = 0.05; m <= 1.0; m += 0.05) {
    const double r = mack_rate(m, p);
    EXPECT_LE(r, prev + 1e-12) << "m = " << m;
    prev = r;
  }
}

TEST(Mack, ThresholdBehaviourIsSharp) {
  const MackParams p;  // n = 30 makes a steep switch around Mth
  EXPECT_GT(mack_rate(0.3, p), 0.5 * p.r_max_nm_s);
  EXPECT_LT(mack_rate(0.8, p), 0.01 * p.r_max_nm_s);
}

TEST(Mack, ClampsOutOfRangeInput) {
  const MackParams p;
  EXPECT_NEAR(mack_rate(-0.5, p), mack_rate(0.0, p), 1e-12);
  EXPECT_NEAR(mack_rate(1.5, p), mack_rate(1.0, p), 1e-12);
}

TEST(Mack, VolumeVersionMatchesScalar) {
  const MackParams p;
  Grid3 inhibitor(1, 1, 3);
  inhibitor.at(0, 0, 0) = 0.1;
  inhibitor.at(0, 0, 1) = 0.5;
  inhibitor.at(0, 0, 2) = 0.9;
  const auto rate = development_rate(inhibitor, p);
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(rate.at(0, 0, i), mack_rate(inhibitor.at(0, 0, i), p));
}

TEST(Mack, ParamValidation) {
  MackParams p;
  p.reaction_order = 1.0;
  EXPECT_THROW(p.validate(), Error);
}

TEST(Godunov, OneSidedUpdateIsLinear) {
  // Only one finite neighbour: T = a + h * s.
  EXPECT_NEAR(godunov_update(2.0, kInf, kInf, 1.0, 1.0, 1.0, 3.0), 5.0,
              1e-12);
}

TEST(Godunov, TwoSidedUpdateSolvesQuadratic) {
  // Equal neighbours a, unit spacing, slowness s: T = a + s/sqrt(2).
  const double t = godunov_update(1.0, 1.0, kInf, 1.0, 1.0, 1.0, 1.0);
  EXPECT_NEAR(t, 1.0 + 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Godunov, ThreeSidedUpdate) {
  const double t = godunov_update(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0);
  EXPECT_NEAR(t, 1.0 / std::sqrt(3.0), 1e-12);
}

TEST(Godunov, RespectsAnisotropicSpacing) {
  // One neighbour with spacing 2: T = a + 2 s.
  EXPECT_NEAR(godunov_update(1.0, kInf, kInf, 2.0, 1.0, 1.0, 1.0), 3.0,
              1e-12);
}

TEST(Godunov, LargeGapFallsBackToSmallerStencil) {
  // One neighbour much later than the other: the causal solution uses only
  // the early one. a1 = 0, a2 = 100: T = s < 100.
  const double t = godunov_update(0.0, 100.0, kInf, 1.0, 1.0, 1.0, 1.0);
  EXPECT_NEAR(t, 1.0, 1e-12);
}

TEST(Eikonal, ConstantRateGivesPlanarFront) {
  // Uniform rate R: the front sweeps straight down; arrival at depth d is
  // (d + 0.5) * dz / R.
  const double rate_value = 4.0;
  Grid3 rate(6, 4, 4, rate_value);
  EikonalSpacing spacing{2.0, 2.0, 1.0};
  const auto arrival = solve_development_front(rate, spacing);
  for (std::int64_t d = 0; d < 6; ++d)
    for (std::int64_t h = 0; h < 4; ++h)
      for (std::int64_t w = 0; w < 4; ++w)
        EXPECT_NEAR(arrival.at(d, h, w),
                    (static_cast<double>(d) + 0.5) * spacing.dz_nm /
                        rate_value,
                    1e-6)
            << d << "," << h << "," << w;
}

TEST(Eikonal, SlowRegionDelaysArrival) {
  Grid3 rate(4, 8, 8, 10.0);
  // Slow column at (4, 4).
  for (std::int64_t d = 1; d < 4; ++d) rate.at(d, 4, 4) = 0.1;
  EikonalSpacing spacing{1.0, 1.0, 1.0};
  const auto arrival = solve_development_front(rate, spacing);
  EXPECT_GT(arrival.at(3, 4, 4), arrival.at(3, 0, 0));
}

TEST(Eikonal, FrontWrapsAroundSlowBlock) {
  // A slow plug at the top can be bypassed laterally: the voxel below the
  // plug is reached by flow around it, earlier than straight through.
  Grid3 rate(6, 9, 9, 5.0);
  for (std::int64_t d = 0; d < 3; ++d) rate.at(d, 4, 4) = 0.01;
  EikonalSpacing spacing{1.0, 1.0, 1.0};
  const auto arrival = solve_development_front(rate, spacing);
  const double straight_through = 3.0 / 0.01;  // lower bound through plug
  EXPECT_LT(arrival.at(4, 4, 4), straight_through);
}

TEST(Eikonal, RejectsNonPositiveRate) {
  Grid3 rate(2, 2, 2, 0.0);
  EXPECT_THROW(solve_development_front(rate, EikonalSpacing{}), Error);
}

// ---------------------------------------------------------------------------
// Closed-form references for the FIM solver: the discrete equations it
// solves, and exact fronts of the continuous problem.

/// godunov_update of voxel (d, h, w) from the arrival times of its six
/// neighbours (infinity past the boundary).
double relaxed_arrival(const Grid3& arrival, const Grid3& rate,
                       const EikonalSpacing& spacing, std::int64_t d,
                       std::int64_t h, std::int64_t w) {
  const auto at = [&](std::int64_t dd, std::int64_t hh, std::int64_t ww) {
    const bool inside = dd >= 0 && dd < arrival.depth() && hh >= 0 &&
                        hh < arrival.height() && ww >= 0 &&
                        ww < arrival.width();
    return inside ? arrival.at(dd, hh, ww) : kInf;
  };
  return godunov_update(std::min(at(d, h, w - 1), at(d, h, w + 1)),
                        std::min(at(d, h - 1, w), at(d, h + 1, w)),
                        std::min(at(d - 1, h, w), at(d + 1, h, w)),
                        spacing.dx_nm, spacing.dy_nm, spacing.dz_nm,
                        1.0 / rate.at(d, h, w));
}

class FimFixedPointTest : public ::testing::TestWithParam<int> {};

TEST_P(FimFixedPointTest, EveryVoxelEqualsItsGodunovUpdate) {
  // Converged to 1e-12 s, every voxel must equal the Godunov update of its
  // neighbours, and a top voxel the earlier of that and its seed. This
  // holds the solver to the discrete equations themselves.
  Rng rng(GetParam());
  Grid3 rate(5, 8, 8);
  for (auto& v : rate.data()) v = rng.uniform(0.5, 40.0);
  const EikonalSpacing spacing{4.0, 4.0, 5.0};
  constexpr double kEps = 1e-12;
  const auto arrival = solve_development_front(rate, spacing, kEps);
  for (std::int64_t d = 0; d < rate.depth(); ++d)
    for (std::int64_t h = 0; h < rate.height(); ++h)
      for (std::int64_t w = 0; w < rate.width(); ++w) {
        double expected = relaxed_arrival(arrival, rate, spacing, d, h, w);
        if (d == 0)
          expected = std::min(expected, 0.5 * spacing.dz_nm / rate.at(0, h, w));
        EXPECT_NEAR(arrival.at(d, h, w), expected, kEps)
            << d << "," << h << "," << w;
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FimFixedPointTest, ::testing::Values(1, 2, 3));

TEST(EikonalClosedForm, StratifiedMediumSumsLayerTransitTimes) {
  // With the rate varying by depth only, the front stays planar: it
  // crosses half of the top layer, then each layer j in dz / r_j.
  const std::int64_t depth = 12;
  Rng rng(4);
  std::vector<double> layer_rate(static_cast<std::size_t>(depth));
  for (auto& r : layer_rate) r = rng.uniform(0.5, 40.0);
  Grid3 rate(depth, 5, 6);
  for (std::int64_t d = 0; d < depth; ++d)
    for (std::int64_t h = 0; h < rate.height(); ++h)
      for (std::int64_t w = 0; w < rate.width(); ++w)
        rate.at(d, h, w) = layer_rate[static_cast<std::size_t>(d)];
  const EikonalSpacing spacing{4.0, 4.0, 5.0};
  const auto arrival = solve_development_front(rate, spacing);

  double expected = 0.0;
  for (std::int64_t d = 0; d < depth; ++d) {
    const double layer = layer_rate[static_cast<std::size_t>(d)];
    expected += (d == 0 ? 0.5 : 1.0) * spacing.dz_nm / layer;
    for (std::int64_t h = 0; h < rate.height(); ++h)
      for (std::int64_t w = 0; w < rate.width(); ++w)
        EXPECT_NEAR(arrival.at(d, h, w), expected, 1e-12 * expected)
            << d << "," << h << "," << w;
  }
}

TEST(EikonalClosedForm, PinholeFrontConvergesToASphere) {
  // Developer enters a 32 nm cube of rate 1 nm/s through the centre voxel
  // of a nearly inert top layer, so the front is a sphere about that
  // voxel's centre: T = h/2 + |x - x_pin|. Measured below the top layer
  // and outside radius L/4, the error must fall at every refinement. A
  // point source under a first-order stencil converges at below order 1.
  constexpr double kLengthNm = 32.0;
  std::vector<double> errors;
  for (const std::int64_t n : {8, 16, 32, 64}) {
    const double h = kLengthNm / static_cast<double>(n);
    const std::int64_t pin = n / 2;
    Grid3 rate(n, n, n, 1.0);
    for (std::int64_t y = 0; y < n; ++y)
      for (std::int64_t x = 0; x < n; ++x) rate.at(0, y, x) = 1e-4;
    rate.at(0, pin, pin) = 1.0;
    const auto arrival = solve_development_front(rate, EikonalSpacing{h, h, h});

    double worst = 0.0;
    for (std::int64_t d = 1; d < n; ++d)
      for (std::int64_t y = 0; y < n; ++y)
        for (std::int64_t x = 0; x < n; ++x) {
          const double dist =
              h * std::sqrt(static_cast<double>(d * d + (y - pin) * (y - pin) +
                                                (x - pin) * (x - pin)));
          if (dist <= kLengthNm / 4.0) continue;
          worst = std::max(worst, std::abs(arrival.at(d, y, x) -
                                           (0.5 * h + dist)));
        }
    errors.push_back(worst);
  }
  for (std::size_t i = 0; i + 1 < errors.size(); ++i) {
    EXPECT_LT(errors[i + 1], errors[i]);
    EXPECT_GE(std::log2(errors[i] / errors[i + 1]), 0.6)
        << "refinement " << i << ": " << errors[i] << " -> " << errors[i + 1];
  }
}

TEST(Profile, ThresholdsArrivalTime) {
  Grid3 arrival(1, 1, 4);
  arrival.at(0, 0, 0) = 1.0;
  arrival.at(0, 0, 1) = 5.0;
  arrival.at(0, 0, 2) = 10.0;
  arrival.at(0, 0, 3) = 20.0;
  const auto profile = resist_profile(arrival, 6.0);
  EXPECT_DOUBLE_EQ(profile.at(0, 0, 0), 0.0);  // cleared
  EXPECT_DOUBLE_EQ(profile.at(0, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(profile.at(0, 0, 2), 1.0);  // resist remains
  EXPECT_DOUBLE_EQ(profile.at(0, 0, 3), 1.0);
}

Grid3 synthetic_arrival_with_hole(std::int64_t size, std::int64_t center,
                                  std::int64_t half_width) {
  // One depth layer: a cleared square hole (arrival 1 s) in a slow field.
  Grid3 arrival(1, size, size, 1000.0);
  for (std::int64_t h = center - half_width; h <= center + half_width; ++h)
    for (std::int64_t w = center - half_width; w <= center + half_width; ++w)
      arrival.at(0, h, w) = 1.0;
  return arrival;
}

TEST(Cd, MeasuresHoleExtentInBothAxes) {
  const auto arrival = synthetic_arrival_with_hole(16, 8, 2);  // 5 px wide
  litho::Contact contact;
  contact.center_h = 8;
  contact.center_w = 8;
  const auto cd = measure_contact_cd(arrival, 60.0, contact, 0, 2.0, 3.0);
  EXPECT_TRUE(cd.resolved);
  EXPECT_DOUBLE_EQ(cd.cd_x_nm, 5 * 2.0);
  EXPECT_DOUBLE_EQ(cd.cd_y_nm, 5 * 3.0);
}

TEST(Cd, UnresolvedContactMeasuresZero) {
  Grid3 arrival(1, 8, 8, 1000.0);  // nothing cleared
  litho::Contact contact;
  contact.center_h = 4;
  contact.center_w = 4;
  const auto cd = measure_contact_cd(arrival, 60.0, contact, 0, 2.0, 2.0);
  EXPECT_FALSE(cd.resolved);
  EXPECT_DOUBLE_EQ(cd.cd_x_nm, 0.0);
  EXPECT_DOUBLE_EQ(cd.cd_y_nm, 0.0);
}

TEST(Cd, RunStopsAtResistBoundary) {
  // Hole touching the clip edge: run must clamp at the border.
  Grid3 arrival(1, 8, 8, 1000.0);
  for (std::int64_t w = 0; w < 3; ++w) arrival.at(0, 4, w) = 1.0;
  arrival.at(0, 3, 1) = 1.0;
  arrival.at(0, 5, 1) = 1.0;
  litho::Contact contact;
  contact.center_h = 4;
  contact.center_w = 1;
  const auto cd = measure_contact_cd(arrival, 60.0, contact, 0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(cd.cd_x_nm, 3.0);
  EXPECT_DOUBLE_EQ(cd.cd_y_nm, 3.0);
}

TEST(Cd, MeasuresEveryContactOfAClip) {
  const auto arrival = synthetic_arrival_with_hole(32, 8, 2);
  litho::MaskClip clip;
  clip.pixel_nm = 2.0;
  clip.pixels = Tensor(Shape{32, 32});
  clip.contacts.push_back({8, 8, 5, 5});
  clip.contacts.push_back({24, 24, 5, 5});  // not printed
  const auto cds = measure_clip_cds(arrival, 60.0, clip, 0);
  ASSERT_EQ(cds.size(), 2u);
  EXPECT_TRUE(cds[0].resolved);
  EXPECT_FALSE(cds[1].resolved);
}

class MackOrderTest : public ::testing::TestWithParam<double> {};

TEST_P(MackOrderTest, HigherOrderSharpensContrast) {
  MackParams p;
  p.reaction_order = GetParam();
  // Contrast ratio between slightly-under and slightly-over threshold.
  const double lo = mack_rate(p.m_threshold + 0.2, p);
  const double hi = mack_rate(p.m_threshold - 0.2, p);
  EXPECT_GT(hi / lo, GetParam());  // grows quickly with n
}

INSTANTIATE_TEST_SUITE_P(Orders, MackOrderTest,
                         ::testing::Values(5.0, 10.0, 30.0));

}  // namespace
}  // namespace sdmpeb::develop
