// Branch & bound MILP solver over the revised-simplex LP relaxation.
//
// The reference engine for the paper's MILPs (Eq. 3-9 feasibility and
// Eq. 11 binding, built by xbar/milp_formulation.h): src/testkit's
// oracle and the tests solve them here to cross-check the specialised
// search that the product runs. One serial best-first loop:
//
//  * Nodes are explored best-bound-first with a deterministic
//    newest-first (DFS plunge) tie-break; each child inherits its
//    parent's optimal BASIS (shared_ptr chains through the tree) and
//    re-solves with a handful of dual pivots instead of a full two-phase
//    solve. Branching is most-fractional weighted by pseudocosts
//    initialised from the objective.
//
//  * Presolve (with the declared bus-symmetry groups rewritten into
//    lexicographic ordering rows) shrinks the model first, and a
//    round-to-nearest heuristic seeds the incumbent.
//
// `bb_result` is a deterministic function of (model, options), unless a
// wall-clock limit actually fires.
#pragma once

#include <cstdint>
#include <vector>

#include "milp/model.h"

namespace stx::milp {

/// Terminal state of a MILP solve.
enum class milp_status {
  optimal,     ///< proven optimal (or proven feasible in feasibility mode)
  feasible,    ///< incumbent found but search hit a limit before proving
  infeasible,  ///< proven: no integer feasible point exists
  unbounded,   ///< LP relaxation unbounded in the minimization direction
  limit,       ///< node/time limit hit with no incumbent: unresolved
};

const char* to_string(milp_status s);

/// Search knobs.
struct bb_options {
  /// Stop after exploring this many branch & bound nodes.
  std::int64_t max_nodes = 2'000'000;
  /// Wall-clock budget in seconds (checked between nodes); <= 0 = none.
  double time_limit_sec = 120.0;
  /// Stop at the first integer-feasible point (paper's MILP1 usage:
  /// "obj: Feasibility Analysis").
  bool feasibility_only = false;
  /// Integrality tolerance.
  double int_tol = 1e-6;
  /// Absolute objective gap for pruning against the incumbent.
  double gap_abs = 1e-6;
  /// Run bound-tightening presolve before the search.
  bool use_presolve = true;
  /// Try a round-to-nearest heuristic at each node to seed the incumbent.
  bool rounding_heuristic = true;
};

/// Solve outcome. `x` is in the ORIGINAL variable space (presolve fixings
/// are expanded back) and `objective` is evaluated on the original model.
struct bb_result {
  milp_status status = milp_status::limit;
  double objective = 0.0;
  std::vector<double> x;
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  double best_bound = 0.0;  ///< global lower bound on the optimum
  /// How many node LP solves re-solved from a warm basis vs from scratch
  /// (the root and internal fallbacks count as cold).
  std::int64_t warm_solves = 0;
  std::int64_t cold_solves = 0;
  /// Pseudocost estimator refinements, the open-heap high-water mark,
  /// and the revised-simplex engine's dual-repair pivot and
  /// refactorization totals over all counted solves.
  std::int64_t pseudocost_updates = 0;
  std::int64_t max_heap_depth = 0;
  std::int64_t dual_pivots = 0;
  std::int64_t refactorizations = 0;
};

/// Solves `m` exactly. The engine is exact for the 0/1 models used
/// throughout this repository; the specialised solver in src/xbar is
/// cross-checked against this path (tests/xbar, src/testkit/oracle).
bb_result solve_branch_bound(const model& m, const bb_options& opts = {});

}  // namespace stx::milp
