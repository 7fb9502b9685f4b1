#pragma once

#include "develop/eikonal.hpp"

namespace sdmpeb::develop {

/// Alternative Eikonal solver: the fast sweeping method (Zhao 2004) —
/// Gauss–Seidel relaxation with the same Godunov upwind stencil over the
/// eight axis-sign sweep orderings, repeated until the largest update falls
/// below `convergence_eps_s`. Same interface and seeding (developer enters
/// through the top surface) as solve_development_front; the two solvers
/// cross-validate each other in tests.
Grid3 solve_development_front_fsm(const Grid3& rate,
                                  const EikonalSpacing& spacing,
                                  double convergence_eps_s = 1e-6,
                                  std::int64_t max_iterations = 100);

}  // namespace sdmpeb::develop
