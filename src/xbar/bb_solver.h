// Specialised exact solver for the crossbar binding model.
//
// Solves the same model as the paper's MILPs (Eq. 3-9 feasibility and the
// Eq. 11 min-max-overlap binding) with a dedicated branch & bound:
// targets are assigned to buses hardest-first, with window-bandwidth /
// conflict / cardinality propagation and bus-symmetry breaking. It is
// the product's only engine: synthesize() runs nothing else. It is exact
// — the tests and src/testkit's oracle cross-check it against the MILP
// formulation (xbar/milp_formulation.h) solved by the generic branch &
// bound — and orders of magnitude faster than that reference.
//
// Search state. One depth-first engine serves all three entry points
// (feasibility, Eq. 11 optimisation, random binding). Everything it
// reads is a flat array indexed by a target's position in the search
// order: the overlap row, the per-window demands, the per-window peak,
// and a word-array mask of conflicting positions. Each bus keeps its
// member positions, a member mask, its member count, its summed
// pairwise overlap and the sum of its members' per-window peaks. Each
// depth keeps its child order and overlap deltas in preallocated
// buffers, ordered by a stable insertion sort in optimize mode. A node
// allocates nothing; placing and removing a target are O(1).
//
// Quick-accept invariant (Eq. 4). A bus's load in any window is at most
// the sum of its members' per-window peaks. So if that sum plus the new
// target's peak is at most the smallest window capacity, every window
// fits and the check passes without reading a window. Otherwise the
// target's non-zero windows are re-checked exactly against the summed
// demands of the bus's members.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "xbar/problem.h"

namespace stx::xbar {

/// Search limits. The defaults are far above what the paper-scale
/// instances (|T| <= 32) need; verification harnesses shrink them to
/// bound a cross-check. A search that runs out of either throws rather
/// than guess.
struct solver_options {
  std::int64_t max_nodes = 20'000'000;
  double time_limit_sec = 60.0;
};

/// Search telemetry.
struct solve_stats {
  std::int64_t nodes = 0;
  bool complete = true;  ///< search ran to proof (not stopped by limits)
  double seconds = 0.0;
};

/// Feasibility (MILP 10 equivalent): find any binding of targets onto
/// `num_buses` buses satisfying Eq. 3-9, or prove none exists.
/// Returns nullopt on proven infeasibility. Throws if limits were hit
/// before an answer (stats->complete false tells the caller why).
std::optional<std::vector<int>> find_feasible_binding(
    const synthesis_input& input, int num_buses,
    const solver_options& opts = {}, solve_stats* stats = nullptr);

/// Optimal binding (MILP 11 equivalent): minimize the maximum per-bus
/// summed pairwise overlap subject to Eq. 3-9.
struct binding_solution {
  std::vector<int> binding;
  cycle_t max_overlap = 0;
  bool proven_optimal = true;
};
std::optional<binding_solution> find_min_overlap_binding(
    const synthesis_input& input, int num_buses,
    const solver_options& opts = {}, solve_stats* stats = nullptr);

/// The two searches above without their lower_bound_buses() pre-check,
/// for callers that already know `num_buses >= lower_bound_buses(input)`:
/// min_feasible_buses() starts its binary search at that bound, so its
/// probes and synthesize()'s final binding solve skip recomputing it.
/// For such bus counts the results, stats and errors are the same as the
/// checked versions'.
std::optional<std::vector<int>> search_feasible_binding(
    const synthesis_input& input, int num_buses,
    const solver_options& opts = {}, solve_stats* stats = nullptr);
std::optional<binding_solution> search_min_overlap_binding(
    const synthesis_input& input, int num_buses,
    const solver_options& opts = {}, solve_stats* stats = nullptr);

/// A *random* feasible binding (Sec. 7.3's random-binding baseline):
/// randomised DFS that still honours Eq. 3-9. Distinct seeds give
/// different bindings. Returns nullopt on proven infeasibility.
std::optional<std::vector<int>> find_random_feasible_binding(
    const synthesis_input& input, int num_buses, std::uint64_t seed,
    const solver_options& opts = {});

/// Cheap lower bound on the feasible bus count, used to seed the binary
/// search and to fail infeasible probes without search:
///  * bandwidth: ceil(max_m sum_i comm[i][m] / WS)
///  * cardinality: ceil(T / maxtb)
///  * conflicts: a greedily grown clique in the conflict graph
int lower_bound_buses(const synthesis_input& input);

}  // namespace stx::xbar
