#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
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

TEST(PebSolver, RunMatchesRepeatedStepsBitwise) {
  // run() shares one scratch set across its steps; a caller stepping with a
  // fresh set each time must get the same bytes, on every backend.
  PebParams params;
  params.duration_s = 1.0;
  const PebSolver solver(params);
  Grid3 acid0(5, 9, 11);
  Rng rng(41);
  for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
  const simd::Isa restore = simd::active();
  std::vector<simd::Isa> backends = {simd::Isa::kScalar};
  if (simd::cpu_has_avx2()) backends.push_back(simd::Isa::kAvx2);
  for (const simd::Isa isa : backends) {
    simd::set_active(isa);
    const PebState ran = solver.run(acid0);
    PebState stepped = solver.initial_state(acid0);
    for (int i = 0; i < 10; ++i) solver.step(stepped);
    EXPECT_EQ(ran.time_s, stepped.time_s);
    const auto same = [](const Grid3& a, const Grid3& b) {
      return a.same_shape(b) &&
             std::memcmp(a.data().data(), b.data().data(),
                         a.data().size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(same(ran.acid, stepped.acid)) << simd::isa_name(isa);
    EXPECT_TRUE(same(ran.base, stepped.base)) << simd::isa_name(isa);
    EXPECT_TRUE(same(ran.inhibitor, stepped.inhibitor))
        << simd::isa_name(isa);
  }
  simd::set_active(restore);
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

// ---------------------------------------------------------------------------
// Closed-form references for the LOD diffusion. Reaction, quencher and
// surface loss are off unless a test turns the surface on, so the acid
// obeys the diffusion equation alone.

PebParams pure_diffusion_params() {
  PebParams p;
  p.catalysis_coeff = 0.0;
  p.reaction_coeff = 0.0;
  p.transfer_coeff_acid = 0.0;
  p.base0 = 0.0;
  return p;
}

/// cos(pi k (i + 1/2) / n): cell i of a zero-flux mode along an axis of n
/// cells. It is an eigenvector of the discrete Laplacian with zero-flux
/// ends and, sampled at cell centres, of the continuous one.
double zero_flux_mode(int k, std::int64_t i, std::int64_t n) {
  return std::cos(M_PI * k * (static_cast<double>(i) + 0.5) /
                  static_cast<double>(n));
}

TEST(PebClosedForm, LodIsExactOnZeroFluxModes) {
  // Backward Euler along one axis multiplies a zero-flux mode by
  // 1 / (1 + 4 r sin^2(pi k / 2N)), r = D dt / h^2, and keeps the constant
  // mode. LOD applies the three axis factors in turn, so a product of
  // modes decays by their product every step, with nothing left over.
  const PebParams params = pure_diffusion_params();
  const PebSolver solver(params);
  const std::int64_t n[3] = {8, 12, 10};  // (z, y, x)
  const int k[3] = {1, 2, 3};
  const double h[3] = {params.dz_nm, params.dy_nm, params.dx_nm};
  const double diff[3] = {params.acid_diff_z(), params.acid_diff_xy(),
                          params.acid_diff_xy()};
  double decay = 1.0;
  for (int axis = 0; axis < 3; ++axis) {
    const double r = diff[axis] * params.dt_s / (h[axis] * h[axis]);
    const double s = std::sin(M_PI * k[axis] / (2.0 * n[axis]));
    decay /= 1.0 + 4.0 * r * s * s;
  }

  Grid3 mode(n[0], n[1], n[2]);
  for (std::int64_t d = 0; d < n[0]; ++d)
    for (std::int64_t y = 0; y < n[1]; ++y)
      for (std::int64_t x = 0; x < n[2]; ++x)
        mode.at(d, y, x) = zero_flux_mode(k[0], d, n[0]) *
                           zero_flux_mode(k[1], y, n[1]) *
                           zero_flux_mode(k[2], x, n[2]);
  Grid3 acid0 = mode;
  for (auto& v : acid0.data()) v = 0.5 + 0.3 * v;

  auto state = solver.initial_state(acid0);
  double worst = 0.0;
  for (int step = 1; step <= 50; ++step) {
    solver.step(state);
    const double amplitude = 0.3 * std::pow(decay, step);
    for (std::size_t i = 0; i < mode.data().size(); ++i)
      worst = std::max(worst, std::abs(state.acid.data()[i] -
                                       (0.5 + amplitude * mode.data()[i])));
  }
  EXPECT_LT(worst, 1e-12);
}

/// Largest deviation of a zero-flux column along z (`cells` x 1 x 1 at
/// params.dz_nm), started at 0.5 + 0.3 cos(pi k z / L), from the exact
/// solution 0.5 + 0.3 exp(-D (pi k / L)^2 t) cos(pi k z / L) after `steps`
/// steps of params.dt_s.
double column_mode_error(const PebParams& params, std::int64_t cells, int k,
                         std::int64_t steps) {
  const PebSolver solver(params);
  Grid3 acid0(cells, 1, 1);
  for (std::int64_t i = 0; i < cells; ++i)
    acid0.at(i, 0, 0) = 0.5 + 0.3 * zero_flux_mode(k, i, cells);
  auto state = solver.initial_state(acid0);
  for (std::int64_t i = 0; i < steps; ++i) solver.step(state);

  const double wave = M_PI * k / (static_cast<double>(cells) * params.dz_nm);
  const double t = static_cast<double>(steps) * params.dt_s;
  const double amplitude =
      0.3 * std::exp(-params.acid_diff_z() * wave * wave * t);
  double worst = 0.0;
  for (std::int64_t i = 0; i < cells; ++i)
    worst = std::max(worst,
                     std::abs(state.acid.at(i, 0, 0) -
                              (0.5 + amplitude * zero_flux_mode(k, i, cells))));
  return worst;
}

/// log2 of each error over the next: the observed order per refinement.
std::vector<double> observed_orders(const std::vector<double>& errors) {
  std::vector<double> orders;
  for (std::size_t i = 0; i + 1 < errors.size(); ++i)
    orders.push_back(std::log2(errors[i] / errors[i + 1]));
  return orders;
}

TEST(PebClosedForm, DiffusionIsFirstOrderInTime) {
  // Table I's normal acid diffusion (D = 27.2 nm^2/s) on 256 cells of
  // 0.25 nm: there the spatial error is under 1% of the temporal one, so
  // halving dt from 0.4 s to 0.05 s must halve the error each time. The
  // bake is 20 s instead of Table I's 90 s.
  PebParams params = pure_diffusion_params();
  params.dz_nm = 0.25;
  constexpr double kBakeSeconds = 20.0;
  std::vector<double> errors;
  for (const double dt : {0.4, 0.2, 0.1, 0.05}) {
    params.dt_s = dt;
    errors.push_back(
        column_mode_error(params, 256, 1, std::lround(kBakeSeconds / dt)));
  }
  for (const double order : observed_orders(errors)) {
    EXPECT_GE(order, 0.9);
    EXPECT_LE(order, 1.1);
  }
}

TEST(PebClosedForm, DiffusionIsSecondOrderInSpace) {
  // A 64 nm column refined from 8 to 64 cells at dt = 1e-4 s, where the
  // temporal error stays under a tenth of the spatial one: halving the
  // spacing must quarter the error. A 150 nm normal length gives
  // D = 125 nm^2/s; the bake is 0.25 s.
  PebParams params = pure_diffusion_params();
  params.normal_diff_len_acid_nm = 150.0;
  params.dt_s = 1e-4;
  constexpr double kLengthNm = 64.0;
  std::vector<double> errors;
  for (const std::int64_t cells : {8, 16, 32, 64}) {
    params.dz_nm = kLengthNm / static_cast<double>(cells);
    errors.push_back(column_mode_error(params, cells, 1, 2500));
  }
  for (const double order : observed_orders(errors)) {
    EXPECT_GE(order, 1.8);
    EXPECT_LE(order, 2.2);
  }
}

TEST(PebClosedForm, RobinSurfaceLossBalancesMassExactly) {
  // The Robin row adds s (A_top - ambient), s = h_A dt / dz, to each
  // column's backward-Euler system and the zero-flux rows conserve mass,
  // so every step loses exactly s * sum over the top layer of
  // (A_new - ambient). The lateral sweeps keep each layer's sum.
  PebParams params = pure_diffusion_params();
  params.transfer_coeff_acid = 0.5;
  params.surface_ambient_acid = 0.1;
  const PebSolver solver(params);
  const double s =
      params.transfer_coeff_acid * params.dt_s / params.dz_nm;
  Grid3 acid0(6, 5, 4);
  Rng rng(3);
  for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);

  const auto mass = [](const Grid3& field) {
    double total = 0.0;
    for (const double v : field.data()) total += v;
    return total;
  };
  auto state = solver.initial_state(acid0);
  double worst = 0.0;
  for (int step = 0; step < 30; ++step) {
    const double before = mass(state.acid);
    solver.step(state);
    double surface = 0.0;
    for (std::int64_t y = 0; y < acid0.height(); ++y)
      for (std::int64_t x = 0; x < acid0.width(); ++x)
        surface += state.acid.at(0, y, x) - params.surface_ambient_acid;
    worst = std::max(worst,
                     std::abs((before - mass(state.acid)) - s * surface));
  }
  EXPECT_LT(worst, 1e-12);
}

}  // namespace
}  // namespace sdmpeb::peb
