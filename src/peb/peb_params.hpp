#pragma once

#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace sdmpeb::peb {

/// Diffusion integrator choice. The implicit locally-one-dimensional scheme
/// (Thomas solves per line) is unconditionally stable at Table I's
/// dt = 0.1 s; the explicit scheme is the classical 7-point forward-Euler
/// stencil of the 1990s PEB literature [16]–[18], automatically substepped
/// to its stability limit — kept as a cross-validation ablation.
enum class DiffusionScheme {
  kImplicitLod,
  kExplicitSubstepped,
};

/// Physical and numerical parameters of the PEB reaction–diffusion system
/// (Eqs. 1–4). Defaults reproduce the paper's Table I exactly. Diffusion is
/// anisotropic: the normal (z) and lateral (x-y) diffusion lengths differ,
/// and L = sqrt(2 D T) ties each length to a diffusion coefficient through
/// the bake duration T.
struct PebParams {
  // --- Table I: PEB block -------------------------------------------------
  double normal_diff_len_acid_nm = 70.0;   ///< L_{N,A}
  double normal_diff_len_base_nm = 15.0;   ///< L_{N,B}
  double lateral_diff_len_acid_nm = 10.0;  ///< L_{L,A}
  double lateral_diff_len_base_nm = 10.0;  ///< L_{L,B}
  double catalysis_coeff = 0.9;            ///< k_c, 1/s
  double reaction_coeff = 8.6993;          ///< k_r, 1/s
  double transfer_coeff_acid = 0.027;      ///< h_A (Robin BC, Eq. 4), nm/s
  double transfer_coeff_base = 0.0;        ///< h_B
  double acid_saturation = 0.9;            ///< [A]_sat (Dill release cap)
  double base_saturation = 0.0;            ///< [B]_sat
  /// Equilibrium concentration the Robin surface condition (Eq. 4) drives
  /// the top layer toward. Table I's [A]_sat equals the maximum releasable
  /// acid, so a literal in-diffusion reading would uniformly deprotect the
  /// top layer, contradicting the paper's Figs. 6/8; the default 0 models
  /// pure out-diffusion (surface evaporation). See DESIGN.md.
  double surface_ambient_acid = 0.0;
  double surface_ambient_base = 0.0;
  double inhibitor0 = 1.0;                 ///< [I](t = 0)
  double base0 = 0.4;                      ///< [B](t = 0)
  double dt_s = 0.1;                       ///< baseline time step
  double duration_s = 90.0;                ///< bake duration
  DiffusionScheme scheme = DiffusionScheme::kImplicitLod;
  double explicit_safety = 0.8;  ///< fraction of the explicit CFL limit

  // --- grid geometry -------------------------------------------------------
  double dx_nm = 2.0;  ///< lateral spacing along W (x)
  double dy_nm = 2.0;  ///< lateral spacing along H (y)
  double dz_nm = 1.0;  ///< depth spacing along D (z)

  /// Diffusion coefficient from a diffusion length: D = L^2 / (2 T).
  double diffusion_from_length(double length_nm) const {
    SDMPEB_CHECK(duration_s > 0.0);
    return length_nm * length_nm / (2.0 * duration_s);
  }

  double acid_diff_z() const {
    return diffusion_from_length(normal_diff_len_acid_nm);
  }
  double acid_diff_xy() const {
    return diffusion_from_length(lateral_diff_len_acid_nm);
  }
  double base_diff_z() const {
    return diffusion_from_length(normal_diff_len_base_nm);
  }
  double base_diff_xy() const {
    return diffusion_from_length(lateral_diff_len_base_nm);
  }

  void validate() const {
    SDMPEB_CHECK(dt_s > 0.0 && duration_s > 0.0);
    SDMPEB_CHECK(dx_nm > 0.0 && dy_nm > 0.0 && dz_nm > 0.0);
    SDMPEB_CHECK(catalysis_coeff >= 0.0 && reaction_coeff >= 0.0);
    SDMPEB_CHECK(inhibitor0 > 0.0 && inhibitor0 <= 1.0);
    SDMPEB_CHECK(base0 >= 0.0);
    SDMPEB_CHECK(transfer_coeff_acid >= 0.0 && transfer_coeff_base >= 0.0);
  }
};

}  // namespace sdmpeb::peb
