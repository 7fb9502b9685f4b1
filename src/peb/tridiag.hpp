#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sdmpeb::peb {

/// Thomas-algorithm solver for the tridiagonal systems of the
/// locally-one-dimensional implicit diffusion steps,
///   sub[i] * x[i-1] + diag[i] * x[i] + sup[i] * x[i+1] = rhs[i]
/// with sub[0] and sup[n-1] ignored; the system must be diagonally dominant
/// (always true for backward-Euler diffusion matrices). Every line along one
/// diffusion axis solves against the same matrix, so the elimination
/// coefficients c[i] = sup[i] / denom[i] and the pivots
/// denom[i] = diag[i] - sub[i] * c[i-1] depend only on the bands: factor()
/// computes them once per sweep (validating every pivot), and the per-line
/// work shrinks to the rhs forward/back substitution in adi_solve_lines —
/// which is also what lets the AVX2 backend run four lines per vector.
struct TridiagFactors {
  std::vector<double> c;      ///< upper-band elimination coefficients
  std::vector<double> denom;  ///< forward-substitution pivots (denom[0] = diag[0])
  std::vector<double> sub;    ///< subdiagonal copy (forward substitution)

  void factor(std::span<const double> sub_band,
              std::span<const double> diag_band,
              std::span<const double> sup_band);
};

/// Most lines adi_solve_lines takes in one call (two AVX2 groups of four).
inline constexpr int kAdiMaxLanes = 8;

/// Solve `lanes` (1..kAdiMaxLanes) independent ADI lines that share one
/// prefactored band set, in place on the grid: lane l's element i lives at
/// data[i * elem_stride + l * lane_stride]. rhs0_add is added to element 0
/// of every lane (the Robin surface source); solutions are clamped at >= 0
/// (concentrations; NaN propagates for the divergence guard) on writeback.
/// d_scratch holds lanes * n doubles. Under the AVX2 backend eight
/// lanes run as two interleaved vector groups and four as one; the scalar
/// path solves any remaining lane one at a time. Every lane performs the
/// same IEEE op sequence on every path, so the result is bitwise identical
/// across backends and lane groupings.
void adi_solve_lines(const TridiagFactors& factors, std::int64_t n,
                     double* data, std::int64_t elem_stride,
                     std::int64_t lane_stride, int lanes, double rhs0_add,
                     std::span<double> d_scratch);

}  // namespace sdmpeb::peb
