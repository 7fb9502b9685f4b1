#pragma once

#include "peb/peb_params.hpp"
#include "peb/tridiag.hpp"
#include "tensor/grid3.hpp"

namespace sdmpeb::peb {

/// Instantaneous state of the bake: the three species volumes plus elapsed
/// bake time. All concentrations are normalised (dimensionless).
struct PebState {
  Grid3 acid;
  Grid3 base;
  Grid3 inhibitor;
  double time_s = 0.0;
};

/// Rigorous PEB reaction–diffusion solver (the repository's stand-in for
/// S-Litho's resist engine, see DESIGN.md §1). Integrates Eqs. (1)–(3) with
/// Strang operator splitting per step:
///
///   reaction dt/2  →  diffusion dt (implicit LOD, unconditionally stable)
///                  →  reaction dt/2
///
/// Reaction sub-steps use closed-form integrators — the bimolecular
/// acid–base neutralisation has an exact solution along the invariant
/// u = [A] − [B], and the catalytic deprotection of Eq. (1) integrates to an
/// exponential for frozen [A] — so concentrations remain non-negative for
/// any step size. Diffusion is anisotropic (normal vs lateral lengths) with
/// zero-flux lateral boundaries and the Robin condition of Eq. (4) on the
/// top surface (z = 0); the bottom (resist/substrate) is zero-flux.
class PebSolver {
 public:
  explicit PebSolver(PebParams params);

  const PebParams& params() const { return params_; }

  /// Build the t = 0 state from an initial photoacid volume: uniform
  /// inhibitor and base per Table I initial conditions.
  PebState initial_state(const Grid3& acid0) const;

  /// Advance by one params().dt_s. The result is scanned for non-finite or
  /// runaway fields; a failed interval is retried from the pre-step state
  /// with repeatedly halved dt before an Error describing the divergence is
  /// thrown (DESIGN.md §10). Recoveries are counted in the metrics registry
  /// ("peb.divergence_retries").
  void step(PebState& state) const;

  /// Run the full bake: initial_state + ceil(duration / dt) steps.
  PebState run(const Grid3& acid0) const;

 private:
  /// One Strang-split advance by dt (no guard, no time_s update).
  void advance(PebState& state, double dt) const;

  void reaction_half_step(PebState& state, double dt) const;

  /// Backward-Euler diffusion along one axis for one species.
  ///   axis: 0 = z (depth), 1 = y (height), 2 = x (width)
  /// robin_h > 0 applies the Robin surface condition at z = 0 (axis 0 only).
  void diffuse_axis(Grid3& field, int axis, double diff_coeff, double dt,
                    double robin_h, double saturation) const;

  /// Explicit 7-point forward-Euler diffusion over dt, internally substepped
  /// to the anisotropic CFL limit (DiffusionScheme::kExplicitSubstepped).
  void diffuse_explicit(Grid3& field, double diff_z, double diff_xy,
                        double dt, double robin_h, double saturation) const;

  void diffusion_step(PebState& state, double dt) const;

  PebParams params_;
};

}  // namespace sdmpeb::peb
