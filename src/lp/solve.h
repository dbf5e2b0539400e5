// Result and option types shared by the LP engines: the revised simplex
// (lp/revised_simplex.h) and the tableau reference the tests keep.
#pragma once

#include <vector>

namespace stx::lp {

/// Terminal state of a simplex solve.
enum class solve_status {
  optimal,          ///< proven optimal within tolerance
  infeasible,       ///< phase 1 could not reach feasibility
  unbounded,        ///< objective unbounded below on the feasible set
  iteration_limit,  ///< gave up; solution vector is not meaningful
};

/// Solver knobs. Defaults are tuned for the small/medium 0-1 models the
/// crossbar formulation produces.
struct solve_options {
  /// Hard cap on simplex pivots across both phases; 0 = automatic
  /// (40 * (rows + columns) + 1000).
  int max_iterations = 0;
  /// Feasibility / reduced-cost tolerance (applied after row scaling).
  double tol = 1e-7;
  /// Recompute basic values from the transformed rhs every this many
  /// pivots to cap numerical drift.
  int refresh_interval = 256;
  /// Revised engine only: rebuild the basis factorization from scratch
  /// every this many eta updates (and refresh basic values from it). The
  /// drift bound tests shrink this to 1; raising it trades accuracy
  /// checks for speed.
  int refactor_interval = 64;
};

/// Solve outcome. `x` holds structural variable values (phase-2 basic
/// solution) when status is optimal.
struct solve_result {
  solve_status status = solve_status::iteration_limit;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;
  int phase1_iterations = 0;
};

}  // namespace stx::lp
