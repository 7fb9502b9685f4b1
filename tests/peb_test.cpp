#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "peb/peb_solver.hpp"
#include "peb/tridiag.hpp"

namespace sdmpeb::peb {
namespace {

TEST(TableI, DefaultsMatchThePaper) {
  const PebParams p;
  EXPECT_DOUBLE_EQ(p.normal_diff_len_acid_nm, 70.0);
  EXPECT_DOUBLE_EQ(p.normal_diff_len_base_nm, 15.0);
  EXPECT_DOUBLE_EQ(p.lateral_diff_len_acid_nm, 10.0);
  EXPECT_DOUBLE_EQ(p.lateral_diff_len_base_nm, 10.0);
  EXPECT_DOUBLE_EQ(p.catalysis_coeff, 0.9);
  EXPECT_DOUBLE_EQ(p.reaction_coeff, 8.6993);
  EXPECT_DOUBLE_EQ(p.transfer_coeff_acid, 0.027);
  EXPECT_DOUBLE_EQ(p.transfer_coeff_base, 0.0);
  EXPECT_DOUBLE_EQ(p.acid_saturation, 0.9);
  EXPECT_DOUBLE_EQ(p.inhibitor0, 1.0);
  EXPECT_DOUBLE_EQ(p.base0, 0.4);
  EXPECT_DOUBLE_EQ(p.dt_s, 0.1);
  EXPECT_DOUBLE_EQ(p.duration_s, 90.0);
}

TEST(TableI, DiffusionCoefficientsFromLengths) {
  const PebParams p;
  // D = L^2 / (2 T) with T = 90 s.
  EXPECT_NEAR(p.acid_diff_z(), 70.0 * 70.0 / 180.0, 1e-12);
  EXPECT_NEAR(p.acid_diff_xy(), 100.0 / 180.0, 1e-12);
  EXPECT_NEAR(p.base_diff_z(), 225.0 / 180.0, 1e-12);
}

/// Solve one tridiagonal line through the production path: factor the
/// bands, then substitute in place. The writeback clamps at 0, so the
/// systems below have positive solutions.
std::vector<double> solve_line(const std::vector<double>& sub,
                               const std::vector<double>& diag,
                               const std::vector<double>& sup,
                               std::vector<double> rhs) {
  TridiagFactors factors;
  factors.factor(sub, diag, sup);
  std::vector<double> scratch(4 * diag.size());
  adi_solve_lines(factors, static_cast<std::int64_t>(diag.size()), rhs.data(),
                  1, 0, 1, 0.0, scratch);
  return rhs;
}

TEST(Tridiag, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  const auto x = solve_line({0.0, 1.0, 1.0}, {2.0, 2.0, 2.0}, {1.0, 1.0, 0.0},
                            {4.0, 8.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiag, SingleElementAndResidualCheck) {
  EXPECT_DOUBLE_EQ(solve_line({0.0}, {4.0}, {0.0}, {8.0})[0], 2.0);

  // Random diagonally dominant system with a known positive solution:
  // verify the solution and the residual.
  Rng rng(1);
  const std::size_t n = 20;
  std::vector<double> sub(n), diag(n), sup(n), want(n), rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    sub[i] = rng.uniform(-1.0, 1.0);
    sup[i] = rng.uniform(-1.0, 1.0);
    diag[i] = 3.0 + rng.uniform(0.0, 1.0);
    want[i] = rng.uniform(0.5, 2.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = diag[i] * want[i];
    if (i > 0) rhs[i] += sub[i] * want[i - 1];
    if (i + 1 < n) rhs[i] += sup[i] * want[i + 1];
  }
  const auto sol = solve_line(sub, diag, sup, rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sol[i], want[i], 1e-9);
    double lhs = diag[i] * sol[i];
    if (i > 0) lhs += sub[i] * sol[i - 1];
    if (i + 1 < n) lhs += sup[i] * sol[i + 1];
    EXPECT_NEAR(lhs, rhs[i], 1e-9);
  }
}

PebParams reaction_only_params() {
  PebParams p;
  p.normal_diff_len_acid_nm = 0.0;
  p.normal_diff_len_base_nm = 0.0;
  p.lateral_diff_len_acid_nm = 0.0;
  p.lateral_diff_len_base_nm = 0.0;
  p.transfer_coeff_acid = 0.0;
  return p;
}

TEST(PebSolver, InitialStateUsesTableIConditions) {
  const PebSolver solver{PebParams{}};
  Grid3 acid0(4, 4, 4, 0.5);
  const auto state = solver.initial_state(acid0);
  EXPECT_DOUBLE_EQ(state.inhibitor.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(state.base.at(0, 0, 0), 0.4);
  EXPECT_DOUBLE_EQ(state.acid.at(0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(state.time_s, 0.0);
}

TEST(PebSolver, RejectsNegativeAcid) {
  const PebSolver solver{PebParams{}};
  Grid3 acid0(2, 2, 2, -0.1);
  EXPECT_THROW(solver.initial_state(acid0), Error);
}

TEST(PebSolver, NoAcidMeansNoDeprotection) {
  auto params = reaction_only_params();
  const PebSolver solver(params);
  Grid3 acid0(2, 4, 4, 0.0);
  const auto state = solver.run(acid0);
  EXPECT_NEAR(state.inhibitor.min(), 1.0, 1e-12);
  EXPECT_NEAR(state.base.min(), 0.4, 1e-12);
}

TEST(PebSolver, ReactionOnlyMatchesAnalyticNeutralisation) {
  // With diffusion off, u = A - B is invariant and
  // A(t) = u A0 / (A0 - B0 exp(-kr u t)).
  auto params = reaction_only_params();
  params.duration_s = 2.0;
  params.dt_s = 0.01;
  params.catalysis_coeff = 0.0;  // isolate the neutralisation
  const PebSolver solver(params);
  const double a0 = 0.8, b0 = params.base0;
  Grid3 acid0(1, 1, 1, a0);
  const auto state = solver.run(acid0);
  const double u = a0 - b0;
  const double kr = params.reaction_coeff;
  const double expected =
      u * a0 / (a0 - b0 * std::exp(-kr * u * params.duration_s));
  EXPECT_NEAR(state.acid.at(0, 0, 0), expected, 1e-6);
  EXPECT_NEAR(state.acid.at(0, 0, 0) - state.base.at(0, 0, 0), u, 1e-9);
}

TEST(PebSolver, CatalysisMatchesExponentialForFrozenAcid) {
  // Excess acid with no base and no diffusion: A stays constant, so
  // I(t) = exp(-kc A t) exactly.
  auto params = reaction_only_params();
  params.base0 = 0.0;
  params.reaction_coeff = 0.0;
  params.duration_s = 10.0;
  params.dt_s = 0.1;
  const PebSolver solver(params);
  const double a0 = 0.5;
  Grid3 acid0(1, 1, 1, a0);
  const auto state = solver.run(acid0);
  EXPECT_NEAR(state.inhibitor.at(0, 0, 0),
              std::exp(-params.catalysis_coeff * a0 * params.duration_s),
              1e-9);
  EXPECT_NEAR(state.acid.at(0, 0, 0), a0, 1e-12);
}

TEST(PebSolver, PureDiffusionConservesMassWithZeroFlux) {
  PebParams params;
  params.catalysis_coeff = 0.0;
  params.reaction_coeff = 0.0;
  params.transfer_coeff_acid = 0.0;  // closed box
  params.base0 = 0.0;
  params.duration_s = 5.0;
  const PebSolver solver(params);
  Grid3 acid0(8, 8, 8, 0.0);
  acid0.at(4, 4, 4) = 1.0;
  const double mass0 = 1.0;
  auto state = solver.initial_state(acid0);
  for (int i = 0; i < 20; ++i) solver.step(state);
  double mass = 0.0;
  for (double v : state.acid.data()) mass += v;
  EXPECT_NEAR(mass, mass0, 1e-9);
  // And it actually spread.
  EXPECT_LT(state.acid.at(4, 4, 4), 1.0);
  EXPECT_GT(state.acid.at(3, 4, 4), 0.0);
}

TEST(PebSolver, DiffusionSmoothsTowardUniform) {
  PebParams params;
  params.catalysis_coeff = 0.0;
  params.reaction_coeff = 0.0;
  params.transfer_coeff_acid = 0.0;
  params.base0 = 0.0;
  params.duration_s = 90.0;
  // Isotropic, long diffusion so the box genuinely equilibrates.
  params.lateral_diff_len_acid_nm = 70.0;
  const PebSolver solver(params);
  Grid3 acid0(4, 8, 8, 0.0);
  acid0.at(0, 0, 0) = 0.8;
  const auto state = solver.run(acid0);
  const double mean = state.acid.mean();
  EXPECT_NEAR(state.acid.max(), mean, 0.25 * mean + 1e-6);
}

TEST(PebSolver, RobinBoundaryRemovesAcidAtSurface) {
  PebParams params;
  params.catalysis_coeff = 0.0;
  params.reaction_coeff = 0.0;
  params.base0 = 0.0;
  params.transfer_coeff_acid = 0.5;  // strong evaporation for the test
  params.duration_s = 10.0;
  const PebSolver solver(params);
  Grid3 acid0(8, 4, 4, 0.8);
  const auto state = solver.run(acid0);
  double mass = 0.0;
  for (double v : state.acid.data()) mass += v;
  EXPECT_LT(mass, 0.8 * static_cast<double>(acid0.numel()) - 1e-6);
  // Acid nearest the surface is depleted most.
  EXPECT_LT(state.acid.at(0, 2, 2), state.acid.at(7, 2, 2));
}

TEST(PebSolver, ConcentrationsStayInPhysicalRange) {
  PebParams params;
  params.duration_s = 9.0;  // shortened bake, full physics
  const PebSolver solver(params);
  Grid3 acid0(6, 8, 8, 0.0);
  for (std::int64_t h = 2; h < 6; ++h)
    for (std::int64_t w = 2; w < 6; ++w)
      for (std::int64_t d = 0; d < 6; ++d) acid0.at(d, h, w) = 0.9;
  const auto state = solver.run(acid0);
  EXPECT_GE(state.acid.min(), 0.0);
  EXPECT_GE(state.base.min(), 0.0);
  EXPECT_GE(state.inhibitor.min(), 0.0);
  EXPECT_LE(state.inhibitor.max(), 1.0 + 1e-12);
  EXPECT_LE(state.acid.max(), 0.9 + 1e-9);
}

TEST(PebSolver, ExposedRegionDeprotectsMoreThanDark) {
  PebParams params;
  params.duration_s = 30.0;
  const PebSolver solver(params);
  Grid3 acid0(6, 12, 12, 0.0);
  for (std::int64_t d = 0; d < 6; ++d)
    for (std::int64_t h = 4; h < 8; ++h)
      for (std::int64_t w = 4; w < 8; ++w) acid0.at(d, h, w) = 0.9;
  const auto state = solver.run(acid0);
  EXPECT_LT(state.inhibitor.at(3, 6, 6), 0.5);   // inside the contact
  EXPECT_GT(state.inhibitor.at(3, 0, 0), 0.9);   // far corner stays protected
  EXPECT_LT(state.inhibitor.at(3, 6, 6), 0.5 * state.inhibitor.at(3, 0, 0));
}

TEST(PebSolver, QuencherLimitsDeprotectionSpread) {
  // With quencher, the acid halo around a feature is neutralised; the
  // inhibitor a few pixels outside the feature should stay protected
  // compared to a quencher-free bake.
  PebParams with_base;
  with_base.duration_s = 30.0;
  PebParams no_base = with_base;
  no_base.base0 = 0.0;

  Grid3 acid0(4, 16, 16, 0.0);
  for (std::int64_t d = 0; d < 4; ++d)
    for (std::int64_t h = 6; h < 10; ++h)
      for (std::int64_t w = 6; w < 10; ++w) acid0.at(d, h, w) = 0.9;

  const auto state_b = PebSolver(with_base).run(acid0);
  const auto state_nb = PebSolver(no_base).run(acid0);
  EXPECT_GT(state_b.inhibitor.at(2, 8, 13), state_nb.inhibitor.at(2, 8, 13));
}

TEST(PebSolver, StepAdvancesTime) {
  const PebSolver solver{PebParams{}};
  Grid3 acid0(2, 4, 4, 0.1);
  auto state = solver.initial_state(acid0);
  solver.step(state);
  EXPECT_DOUBLE_EQ(state.time_s, 0.1);
  solver.step(state);
  EXPECT_DOUBLE_EQ(state.time_s, 0.2);
}

class StrangConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(StrangConvergenceTest, RefiningDtConverges) {
  // Full physics on a small grid: halving dt should change the result only
  // slightly (the splitting is stable and consistent).
  PebParams coarse;
  coarse.duration_s = 5.0;
  coarse.dt_s = GetParam();
  PebParams fine = coarse;
  fine.dt_s = GetParam() / 2.0;

  Grid3 acid0(4, 6, 6, 0.0);
  acid0.at(1, 3, 3) = 0.9;
  acid0.at(2, 3, 3) = 0.9;

  const auto state_c = PebSolver(coarse).run(acid0);
  const auto state_f = PebSolver(fine).run(acid0);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < state_c.inhibitor.data().size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(state_c.inhibitor.data()[i] -
                                 state_f.inhibitor.data()[i]));
  EXPECT_LT(max_diff, 0.05) << "dt = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TimeSteps, StrangConvergenceTest,
                         ::testing::Values(0.2, 0.1, 0.05));

}  // namespace
}  // namespace sdmpeb::peb
