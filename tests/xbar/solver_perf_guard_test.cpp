// Solver perf guard (ctest label `bench`): the warm-started incremental
// branch & bound that serves as the reference MILP engine must keep
// re-solving nodes from the parent basis — the whole point of the
// machinery is replacing full two-phase solves with a handful of dual
// pivots. The guard is on DETERMINISTIC counters (node and solve counts,
// no wall clock), so it cannot flake on a loaded machine; tripping it
// means the warm path has actually regressed.
#include <gtest/gtest.h>

#include <algorithm>

#include "milp/branch_bound.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"
#include "xbar/milp_formulation.h"
#include "xbar/synthesis.h"

namespace stx::xbar {
namespace {

TEST(SolverPerfGuard, WarmSolvesDominateOnBuiltinApps) {
  constexpr traffic::cycle_t kHorizon = 8'000;
  constexpr int kMaxTargets = 10;  // keep the suite quick under sanitizers
  int guarded = 0;
  for (const auto& name : workloads::app_names()) {
    const auto app = *workloads::make_app_by_name(name);
    flow_options opts;
    opts.horizon = kHorizon;
    opts.synth.params.window_size = 400;
    opts.synth.params.overlap_threshold = 0.30;
    opts.synth.params.max_targets_per_bus = 4;
    const auto traces = collect_traces(app, opts);
    const auto input =
        input_from_trace(traces.request, opts.synth.params);
    if (input.num_targets() > kMaxTargets) continue;
    synthesis_options so;
    so.params = input.params();
    const int buses = min_feasible_buses(input, so);
    const auto bm = build_binding_milp(input, buses);

    // Node budgets only: a wall-clock limit would make the guard's
    // verdict depend on machine speed.
    milp::bb_options opts_bb;
    opts_bb.time_limit_sec = 0.0;
    const auto w = milp::solve_branch_bound(bm.model, opts_bb);
    ASSERT_EQ(w.status, milp::milp_status::optimal) << name;

    // Warm-start health: on any search that branches, nearly every node
    // must re-solve from its parent's basis. Cold solves are the root
    // solve plus rare dual-repair fallbacks; more than 10% of all solves
    // going cold means the warm path has regressed.
    if (w.nodes > 1) {
      EXPECT_GT(w.warm_solves, 0) << name;
      const auto total = w.warm_solves + w.cold_solves;
      EXPECT_LE(w.cold_solves * 10, std::max<std::int64_t>(10, total))
          << name << ": " << w.cold_solves << " cold of " << total
          << " solves";
    }
    ++guarded;
  }
  EXPECT_GE(guarded, 3) << "too few tractable apps reached the guard";
}

}  // namespace
}  // namespace stx::xbar
