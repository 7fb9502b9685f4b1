#include "peb/peb_solver.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"

namespace sdmpeb::peb {

namespace {

/// Divergence guard (DESIGN.md §10). Concentrations are normalised O(1), so
/// a magnitude above kDivergenceThreshold is numerically meaningless; a
/// failed interval is retried with up to 2^kDivergenceMaxHalvings substeps.
constexpr double kDivergenceThreshold = 1e6;
constexpr std::int64_t kDivergenceMaxHalvings = 4;

/// True when all three fields are finite and within the runaway threshold.
bool state_ok(const PebState& state) {
  const auto field_ok = [](const Grid3& field) {
    for (const double v : field.data()) {
      // A single compare catches NaN (comparisons with NaN are false) and
      // +/-Inf alongside genuine runaway magnitudes.
      if (!(std::abs(v) <= kDivergenceThreshold)) return false;
    }
    return true;
  };
  return field_ok(state.acid) && field_ok(state.base) &&
         field_ok(state.inhibitor);
}

}  // namespace

PebSolver::PebSolver(PebParams params) : params_(params) {
  params_.validate();
}

PebState PebSolver::initial_state(const Grid3& acid0) const {
  PebState state;
  state.acid = acid0;
  state.base = Grid3(acid0.depth(), acid0.height(), acid0.width(),
                     params_.base0);
  state.inhibitor = Grid3(acid0.depth(), acid0.height(), acid0.width(),
                          params_.inhibitor0);
  state.time_s = 0.0;
  for (double a : acid0.data())
    SDMPEB_CHECK_MSG(a >= 0.0, "negative initial photoacid");
  return state;
}

void PebSolver::reaction_half_step(PebState& state, double dt) const {
  // ~12 flops/voxel (two exp ~ amortised as 4 each plus the rational
  // update); coarse but stable, so gflops attribution stays comparable
  // across runs.
  SDMPEB_SPAN("peb.reaction", "flops",
              12 * static_cast<std::int64_t>(state.acid.data().size()));
  const double kr = params_.reaction_coeff;
  const double kc = params_.catalysis_coeff;
  auto acid = state.acid.data();
  auto base = state.base.data();
  auto inhibitor = state.inhibitor.data();

  // Pointwise chemistry: every voxel is independent.
  parallel::parallel_for(
      0, static_cast<std::int64_t>(acid.size()), 16384,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t idx = i0; idx < i1; ++idx) {
          const auto i = static_cast<std::size_t>(idx);
          const double a0 = acid[i];
          const double b0 = base[i];

          // Catalytic deprotection, Eq. (1): for frozen [A] over the
          // sub-step the exact solution is I(t) = I0 * exp(-kc * A * t).
          // Using the average of the pre/post-neutralisation acid would be
          // second-order; the Strang wrapper already gives second-order
          // overall, so the frozen value is evaluated first with a0.
          inhibitor[i] *= std::exp(-kc * a0 * dt);

          // Acid–base neutralisation: dA/dt = dB/dt = -kr * A * B, so
          // u = A - B is invariant and
          // A(t) = u * A0 / (A0 - B0 * exp(-kr * u * t)); the symmetric
          // limit u -> 0 gives A(t) = A0 / (1 + kr * A0 * t).
          const double u = a0 - b0;
          double a1;
          if (std::abs(u) < 1e-12) {
            a1 = a0 / (1.0 + kr * a0 * dt);
          } else {
            const double decay = std::exp(-kr * u * dt);
            a1 = u * a0 / (a0 - b0 * decay);
          }
          // Guard against rounding pushing concentrations slightly negative.
          a1 = std::max(a1, 0.0);
          double b1 = std::max(a1 - u, 0.0);
          acid[i] = a1;
          base[i] = b1;
        }
      });
}

void PebSolver::diffuse_axis(Grid3& field, int axis, double diff_coeff,
                             double dt, double robin_h,
                             double saturation) const {
  if (diff_coeff <= 0.0) return;

  const auto depth = field.depth();
  const auto height = field.height();
  const auto width = field.width();

  std::int64_t count = 0;      // line length along the diffusing axis
  double spacing_nm = 0.0;
  switch (axis) {
    case 0: count = depth;  spacing_nm = params_.dz_nm; break;
    case 1: count = height; spacing_nm = params_.dy_nm; break;
    case 2: count = width;  spacing_nm = params_.dx_nm; break;
    default: SDMPEB_CHECK_MSG(false, "bad axis " << axis);
  }
  if (count < 2) return;

  const double r = diff_coeff * dt / (spacing_nm * spacing_nm);
  const double s = robin_h * dt / spacing_nm;  // Robin surface term

  const auto n = static_cast<std::size_t>(count);
  // The matrix bands are identical for every line along this axis: build
  // them once and share read-only across the parallel line solves.
  std::vector<double> sub(n), diag(n), sup(n);

  // Matrix of (I - dt D Lap) with zero-flux ends; the Robin condition adds
  // an extra sink/source h (u - sat) on the z = 0 cell (axis 0 only).
  for (std::size_t i = 0; i < n; ++i) {
    sub[i] = -r;
    sup[i] = -r;
    diag[i] = 1.0 + 2.0 * r;
  }
  diag[0] = 1.0 + r;
  diag[n - 1] = 1.0 + r;
  if (axis == 0 && robin_h > 0.0) diag[0] += s;

  // Flat line index -> (base cell, stride) for each sweep direction.
  std::int64_t lines = 0;
  switch (axis) {
    case 0: lines = height * width; break;
    case 1: lines = depth * width; break;
    case 2: lines = depth * height; break;
    default: break;
  }
  SDMPEB_SPAN("peb.diffuse_axis", "axis", axis);
  if (obs::trace_enabled()) {
    static obs::Counter& sweeps = obs::counter("peb.adi_sweeps");
    static obs::Counter& solved = obs::counter("peb.adi_lines");
    sweeps.add(1);
    solved.add(static_cast<std::uint64_t>(lines));
  }

  const auto line_base = [&](std::int64_t line) -> std::int64_t {
    switch (axis) {
      case 0: return line;  // (h, w) plane cell, stride height*width
      case 1: return (line / width) * height * width + line % width;
      case 2: return line * width;
      default: return 0;
    }
  };
  const std::int64_t stride =
      axis == 0 ? height * width : (axis == 1 ? width : 1);
  // Base offset between adjacent lines, valid within one "run" (axis 1 line
  // bases jump at every width boundary; axes 0 and 2 are uniform
  // throughout). Lines inside a run batch into up-to-4-lane groups for the
  // vectorized solver.
  const std::int64_t lane_stride = axis == 2 ? width : 1;
  const auto run_end = [&](std::int64_t line) -> std::int64_t {
    return axis == 1 ? (line / width + 1) * width : lines;
  };

  // The bands are identical for every line: factor the Thomas elimination
  // coefficients once per sweep (this also hoists the per-line pivot
  // checks), leaving only the per-line rhs substitution passes.
  TridiagFactors factors;
  factors.factor(sub, diag, sup);
  const double rhs0_add = axis == 0 && robin_h > 0.0 ? s * saturation : 0.0;

  auto data = field.data();
  // Every tridiagonal line is independent and writes only its own cells.
  // Scratch is chunk-local and served by the worker's WorkspaceArena, so
  // concurrent solves share no mutable state and steady-state sweeps never
  // touch the allocator. Lane grouping depends only on the chunk bounds
  // (fixed by the grain, never the thread count) and the run geometry, so
  // each cell's op sequence is deterministic per backend.
  parallel::parallel_for(
      0, lines, 32, [&](std::int64_t l0, std::int64_t l1) {
        auto& arena = WorkspaceArena::tls();
        WorkspaceArena::Scope scope(arena);
        const auto count64 = static_cast<std::int64_t>(n);
        std::span<double> d_scratch(arena.doubles(4 * count64),
                                    static_cast<std::size_t>(4 * count64));
        std::int64_t line = l0;
        while (line < l1) {
          const auto limit = std::min(l1, run_end(line));
          const int lanes =
              static_cast<int>(std::min<std::int64_t>(4, limit - line));
          adi_solve_lines(factors, count64, data.data() + line_base(line),
                          stride, lane_stride, lanes, rhs0_add, d_scratch);
          line += lanes;
        }
      });
}

void PebSolver::diffuse_explicit(Grid3& field, double diff_z, double diff_xy,
                                 double dt, double robin_h,
                                 double saturation) const {
  if (diff_z <= 0.0 && diff_xy <= 0.0) return;
  const auto depth = field.depth();
  const auto height = field.height();
  const auto width = field.width();
  const double dx2 = params_.dx_nm * params_.dx_nm;
  const double dy2 = params_.dy_nm * params_.dy_nm;
  const double dz2 = params_.dz_nm * params_.dz_nm;

  // Anisotropic CFL limit: dt <= 1 / (2 (Dx/dx^2 + Dy/dy^2 + Dz/dz^2)).
  const double rate_sum =
      diff_xy / dx2 + diff_xy / dy2 + diff_z / dz2;
  const double dt_stable = params_.explicit_safety / (2.0 * rate_sum);
  const auto substeps = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(dt / dt_stable)));
  const double dt_sub = dt / static_cast<double>(substeps);

  SDMPEB_SPAN("peb.diffuse_explicit", "substeps", substeps);
  if (obs::trace_enabled()) {
    static obs::Counter& count = obs::counter("peb.explicit_substeps");
    count.add(static_cast<std::uint64_t>(substeps));
  }

  Grid3 next(depth, height, width);
  for (std::int64_t step = 0; step < substeps; ++step) {
    // Jacobi update: reads `field`, writes `next` — depth slabs are
    // independent (halo reads are into the read-only source grid).
    parallel::parallel_for(0, depth, 1, [&](std::int64_t d0, std::int64_t d1) {
      for (std::int64_t d = d0; d < d1; ++d) {
        for (std::int64_t h = 0; h < height; ++h) {
          for (std::int64_t w = 0; w < width; ++w) {
            const double center = field.at(d, h, w);
            // Zero-flux boundaries: reflect the centre value at walls.
            const double up = d > 0 ? field.at(d - 1, h, w) : center;
            const double down =
                d + 1 < depth ? field.at(d + 1, h, w) : center;
            const double north = h > 0 ? field.at(d, h - 1, w) : center;
            const double south =
                h + 1 < height ? field.at(d, h + 1, w) : center;
            const double west = w > 0 ? field.at(d, h, w - 1) : center;
            const double east =
                w + 1 < width ? field.at(d, h, w + 1) : center;
            double lap = diff_z * (up + down - 2.0 * center) / dz2 +
                         diff_xy * (north + south - 2.0 * center) / dy2 +
                         diff_xy * (west + east - 2.0 * center) / dx2;
            // Robin surface sink on the top layer.
            if (d == 0 && robin_h > 0.0)
              lap -= robin_h / params_.dz_nm * (center - saturation);
            next.at(d, h, w) = std::max(center + dt_sub * lap, 0.0);
          }
        }
      }
    });
    std::swap(field, next);
  }
}

void PebSolver::diffusion_step(PebState& state, double dt) const {
  if (params_.scheme == DiffusionScheme::kExplicitSubstepped) {
    diffuse_explicit(state.acid, params_.acid_diff_z(),
                     params_.acid_diff_xy(), dt, params_.transfer_coeff_acid,
                     params_.surface_ambient_acid);
    diffuse_explicit(state.base, params_.base_diff_z(),
                     params_.base_diff_xy(), dt, params_.transfer_coeff_base,
                     params_.surface_ambient_base);
    return;
  }
  // Acid: anisotropic, Robin top surface.
  diffuse_axis(state.acid, 0, params_.acid_diff_z(), dt,
               params_.transfer_coeff_acid, params_.surface_ambient_acid);
  diffuse_axis(state.acid, 1, params_.acid_diff_xy(), dt, 0.0, 0.0);
  diffuse_axis(state.acid, 2, params_.acid_diff_xy(), dt, 0.0, 0.0);
  // Base quencher: its own lengths; h_B = 0 in Table I -> pure zero-flux.
  diffuse_axis(state.base, 0, params_.base_diff_z(), dt,
               params_.transfer_coeff_base, params_.surface_ambient_base);
  diffuse_axis(state.base, 1, params_.base_diff_xy(), dt, 0.0, 0.0);
  diffuse_axis(state.base, 2, params_.base_diff_xy(), dt, 0.0, 0.0);
}

void PebSolver::advance(PebState& state, double dt) const {
  reaction_half_step(state, 0.5 * dt);
  diffusion_step(state, dt);
  reaction_half_step(state, 0.5 * dt);
  if (fault::enabled() && fault::should_fire("peb.diverge")) {
    // Simulated numerical blow-up: one poisoned cell, exactly what an
    // unstable parameter combination or a hardware fault produces.
    auto acid = state.acid.data();
    acid[fault::draw_index(acid.size())] =
        std::numeric_limits<double>::quiet_NaN();
  }
}

void PebSolver::step(PebState& state) const {
  SDMPEB_SPAN("peb.step");
  if (obs::trace_enabled()) {
    static obs::Counter& steps = obs::counter("peb.steps");
    steps.add(1);
  }
  const double dt = params_.dt_s;
  const PebState snapshot = state;
  advance(state, dt);
  if (state_ok(state)) {
    state.time_s += dt;
    return;
  }

  // The interval diverged: rewind and re-integrate it with halved dt,
  // doubling the substep count until the guard passes or the budget runs
  // out. Strang splitting is stable at any dt here, so in practice this
  // only triggers on injected faults or pathological parameter sets — but
  // when it does, retrying beats silently propagating NaNs into every
  // downstream consumer.
  for (std::int64_t halving = 1; halving <= kDivergenceMaxHalvings;
       ++halving) {
    obs::counter("peb.divergence_retries").add(1);
    state = snapshot;
    const auto substeps = std::int64_t{1} << halving;
    const double dt_sub = dt / static_cast<double>(substeps);
    bool ok = true;
    for (std::int64_t i = 0; i < substeps && ok; ++i) {
      advance(state, dt_sub);
      ok = state_ok(state);
    }
    if (ok) {
      SDMPEB_LOG(obs::LogLevel::kWarn)
          << "PEB interval at t=" << state.time_s << "s diverged; recovered "
          << "with dt/" << substeps;
      state.time_s += dt;
      return;
    }
  }
  state = snapshot;
  throw Error(
      "PEB solver diverged (non-finite or runaway field) at t=" +
      std::to_string(state.time_s) + "s and did not recover after " +
      std::to_string(kDivergenceMaxHalvings) +
      " dt-halvings; check PebParams (dt_s, diffusion lengths, reaction "
      "coefficients) for an unstable combination");
}

PebState PebSolver::run(const Grid3& acid0) const {
  PebState state = initial_state(acid0);
  const auto steps = static_cast<std::int64_t>(
      std::ceil(params_.duration_s / params_.dt_s - 1e-9));
  for (std::int64_t i = 0; i < steps; ++i) step(state);
  return state;
}

}  // namespace sdmpeb::peb
