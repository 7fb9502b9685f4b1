#include "peb/peb_solver.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace sdmpeb::peb {

namespace {

/// Divergence guard (DESIGN.md §10). Concentrations are normalised O(1), so
/// a magnitude above kDivergenceThreshold is numerically meaningless; a
/// failed interval is retried with up to 2^kDivergenceMaxHalvings substeps.
constexpr double kDivergenceThreshold = 1e6;
constexpr std::int64_t kDivergenceMaxHalvings = 4;

/// Voxels per reaction chunk (DESIGN.md §7). Fixed, so chunk boundaries and
/// the AND of per-chunk verdicts never depend on the pool width, and small
/// enough that the smallest clip, 16x32x32, still splits into 16 chunks:
/// several per worker on a 4-wide pool.
constexpr std::int64_t kReactionGrain = 1024;

/// Give `grid` the shape of `like` (contents unspecified) unless it has it.
void match_shape(Grid3& grid, const Grid3& like) {
  if (!grid.same_shape(like))
    grid = Grid3(like.depth(), like.height(), like.width());
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

bool PebSolver::reaction_half_step(const PebState& from, PebState& to,
                                   double dt, bool check) const {
  // ~12 flops/voxel (two exp ~ amortised as 4 each plus the rational
  // update); coarse but stable, so gflops attribution stays comparable
  // across runs.
  const auto voxels = static_cast<std::int64_t>(from.acid.data().size());
  SDMPEB_SPAN("peb.reaction", "flops", 12 * voxels);
  simd::PebReaction r;
  r.acid_in = from.acid.data().data();
  r.base_in = from.base.data().data();
  r.inhibitor_in = from.inhibitor.data().data();
  r.acid_out = to.acid.data().data();
  r.base_out = to.base.data().data();
  r.inhibitor_out = to.inhibitor.data().data();
  r.kr = params_.reaction_coeff;
  r.kc = params_.catalysis_coeff;
  r.dt = dt;
  r.check = check;
  r.limit = kDivergenceThreshold;

  // Pointwise chemistry: every voxel is independent, and the verdict is an
  // AND over chunks, so neither depends on which thread ran which chunk.
  return parallel::reduce(
      std::int64_t{0}, voxels, kReactionGrain, 1,
      [&](std::int64_t i0, std::int64_t i1) {
        return simd::peb_reaction(r, i0, i1) ? 1 : 0;
      },
      [](int all_ok, int chunk_ok) { return all_ok & chunk_ok; }) != 0;
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
  // throughout). Lines inside a run batch into groups of up to
  // kAdiMaxLanes for the vectorized solver.
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
        std::span<double> d_scratch(
            arena.doubles(kAdiMaxLanes * count64),
            static_cast<std::size_t>(kAdiMaxLanes * count64));
        std::int64_t line = l0;
        while (line < l1) {
          const auto limit = std::min(l1, run_end(line));
          const int lanes = static_cast<int>(
              std::min<std::int64_t>(kAdiMaxLanes, limit - line));
          adi_solve_lines(factors, count64, data.data() + line_base(line),
                          stride, lane_stride, lanes, rhs0_add, d_scratch);
          line += lanes;
        }
      });
}

void PebSolver::diffusion_step(PebState& state, double dt) const {
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

bool PebSolver::advance(const PebState& from, PebState& to,
                        double dt) const {
  reaction_half_step(from, to, 0.5 * dt, false);
  diffusion_step(to, dt);
  if (fault::enabled() && fault::should_fire("peb.diverge")) {
    // Simulated numerical blow-up: one poisoned cell, exactly what an
    // unstable parameter combination or a hardware fault produces. The
    // closing reaction pass carries the NaN into every species of the cell,
    // where its guard sees it.
    auto acid = to.acid.data();
    acid[fault::draw_index(acid.size())] =
        std::numeric_limits<double>::quiet_NaN();
  }
  return reaction_half_step(to, to, 0.5 * dt, true);
}

void PebSolver::step(PebState& state, PebState& scratch) const {
  SDMPEB_SPAN("peb.step");
  if (obs::trace_enabled()) {
    static obs::Counter& steps = obs::counter("peb.steps");
    steps.add(1);
  }
  match_shape(scratch.acid, state.acid);
  match_shape(scratch.base, state.acid);
  match_shape(scratch.inhibitor, state.acid);
  const double dt = params_.dt_s;
  const auto commit = [&] {
    std::swap(state.acid, scratch.acid);
    std::swap(state.base, scratch.base);
    std::swap(state.inhibitor, scratch.inhibitor);
    state.time_s += dt;
  };
  if (advance(state, scratch, dt)) {
    commit();
    return;
  }

  // The interval diverged: re-integrate it from the untouched pre-step
  // state with halved dt, doubling the substep count until the guard passes
  // or the budget runs out. Strang splitting is stable at any dt here, so
  // in practice this only triggers on injected faults or pathological
  // parameter sets — but when it does, retrying beats silently propagating
  // NaNs into every downstream consumer.
  for (std::int64_t halving = 1; halving <= kDivergenceMaxHalvings;
       ++halving) {
    obs::counter("peb.divergence_retries").add(1);
    const auto substeps = std::int64_t{1} << halving;
    const double dt_sub = dt / static_cast<double>(substeps);
    bool ok = advance(state, scratch, dt_sub);
    for (std::int64_t i = 1; i < substeps && ok; ++i)
      ok = advance(scratch, scratch, dt_sub);
    if (ok) {
      SDMPEB_LOG(obs::LogLevel::kWarn)
          << "PEB interval at t=" << state.time_s << "s diverged; recovered "
          << "with dt/" << substeps;
      commit();
      return;
    }
  }
  throw Error(
      "PEB solver diverged (non-finite or runaway field) at t=" +
      std::to_string(state.time_s) + "s and did not recover after " +
      std::to_string(kDivergenceMaxHalvings) +
      " dt-halvings; check PebParams (dt_s, diffusion lengths, reaction "
      "coefficients) for an unstable combination");
}

void PebSolver::step(PebState& state) const {
  PebState scratch;
  step(state, scratch);
}

PebState PebSolver::run(const Grid3& acid0) const {
  PebState state = initial_state(acid0);
  PebState scratch;
  const auto steps = static_cast<std::int64_t>(
      std::ceil(params_.duration_s / params_.dt_s - 1e-9));
  for (std::int64_t i = 0; i < steps; ++i) step(state, scratch);
  return state;
}

}  // namespace sdmpeb::peb
