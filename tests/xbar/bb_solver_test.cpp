// Unit tests for the specialised branch & bound solver.
#include "xbar/bb_solver.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/error.h"
#include "util/random.h"
#include "workloads/big_fabric.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"
#include "xbar/synthesis.h"

namespace stx::xbar {
namespace {

design_params basic_params(cycle_t ws = 100, int maxtb = 0) {
  design_params p;
  p.window_size = ws;
  p.max_targets_per_bus = maxtb;
  return p;
}

/// Direct-input builder for readable tests.
synthesis_input make_input(std::vector<std::vector<cycle_t>> comm,
                           std::vector<std::vector<cycle_t>> om,
                           std::vector<std::pair<int, int>> conflicts,
                           const design_params& p) {
  const auto n = comm.size();
  std::vector<std::vector<bool>> conf(n, std::vector<bool>(n, false));
  for (auto [i, j] : conflicts) {
    conf[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
    conf[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = true;
  }
  if (om.empty()) {
    om.assign(n, std::vector<cycle_t>(n, 0));
  }
  return synthesis_input(std::move(comm), std::move(om), std::move(conf),
                         p.window_size, p);
}

TEST(BbSolver, PacksWhenBandwidthAllows) {
  // Three targets of 30 cycles in one 100-cycle window: fit on one bus.
  const auto in = make_input({{30}, {30}, {30}}, {}, {}, basic_params());
  const auto b = find_feasible_binding(in, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(in.binding_feasible(*b, 1));
}

TEST(BbSolver, BandwidthForcesSeparation) {
  // 60 + 60 > 100: two buses needed.
  const auto in = make_input({{60}, {60}}, {}, {}, basic_params());
  EXPECT_FALSE(find_feasible_binding(in, 1).has_value());
  EXPECT_TRUE(find_feasible_binding(in, 2).has_value());
}

TEST(BbSolver, PerWindowConstraintIsNotAggregate) {
  // Aggregate fits (60+60 over two windows = 120 <= 200) but window 0
  // collides: per-window semantics must reject one bus.
  const auto in =
      make_input({{60, 0}, {60, 0}}, {}, {}, basic_params(100));
  EXPECT_FALSE(find_feasible_binding(in, 1).has_value());
  // Anti-correlated traffic shares fine.
  const auto in2 =
      make_input({{60, 0}, {0, 60}}, {}, {}, basic_params(100));
  EXPECT_TRUE(find_feasible_binding(in2, 1).has_value());
}

TEST(BbSolver, ConflictCliqueNeedsThatManyBuses) {
  const auto in = make_input({{10}, {10}, {10}}, {},
                             {{0, 1}, {0, 2}, {1, 2}}, basic_params());
  EXPECT_FALSE(find_feasible_binding(in, 2).has_value());
  const auto b = find_feasible_binding(in, 3);
  ASSERT_TRUE(b.has_value());
  std::set<int> used(b->begin(), b->end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(BbSolver, MaxTbCaps) {
  const auto in =
      make_input({{10}, {10}, {10}, {10}}, {}, {}, basic_params(100, 2));
  EXPECT_FALSE(find_feasible_binding(in, 1).has_value());
  EXPECT_TRUE(find_feasible_binding(in, 2).has_value());
}

TEST(BbSolver, LowerBoundComponents) {
  // Bandwidth bound: total 180 over WS 100 -> 2 buses.
  const auto bw = make_input({{90}, {90}}, {}, {}, basic_params());
  EXPECT_EQ(lower_bound_buses(bw), 2);
  // Cardinality bound: 5 targets, maxtb 2 -> 3.
  const auto card = make_input({{1}, {1}, {1}, {1}, {1}}, {}, {},
                               basic_params(100, 2));
  EXPECT_EQ(lower_bound_buses(card), 3);
  // Clique bound: triangle -> 3.
  const auto clique = make_input({{1}, {1}, {1}}, {},
                                 {{0, 1}, {0, 2}, {1, 2}}, basic_params());
  EXPECT_EQ(lower_bound_buses(clique), 3);
}

TEST(BbSolver, MinOverlapBindingMatchesHandOptimum) {
  // Four targets: om(0,1)=100, om(2,3)=90, om(0,2)=om(1,3)=10,
  // om(0,3)=om(1,2)=40. The three 2+2 pairings score 100, 40 and 10:
  // the optimum pairs (0,2)/(1,3) for maxov 10.
  std::vector<std::vector<cycle_t>> om = {
      {0, 100, 10, 40}, {100, 0, 40, 10}, {10, 40, 0, 90}, {40, 10, 90, 0}};
  const auto in = make_input({{25}, {25}, {25}, {25}}, om, {},
                             basic_params(100, 2));
  const auto sol = find_min_overlap_binding(in, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(sol->proven_optimal);
  EXPECT_EQ(sol->max_overlap, 10);
  EXPECT_EQ(in.max_bus_overlap(sol->binding, 2), 10);
}

TEST(BbSolver, MinOverlapHonoursConflicts) {
  // om(0,1) = 0 would make {0,1} the obvious pair, but they conflict.
  std::vector<std::vector<cycle_t>> om = {
      {0, 0, 50}, {0, 0, 50}, {50, 50, 0}};
  const auto in = make_input({{20}, {20}, {20}}, om, {{0, 1}},
                             basic_params(100, 2));
  const auto sol = find_min_overlap_binding(in, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NE(sol->binding[0], sol->binding[1]);
  EXPECT_EQ(sol->max_overlap, 50);
}

TEST(BbSolver, InfeasibleOptimisationReturnsNullopt) {
  const auto in = make_input({{80}, {80}, {80}}, {}, {}, basic_params());
  EXPECT_FALSE(find_min_overlap_binding(in, 2).has_value());
}

TEST(BbSolver, RandomBindingsAreFeasibleAndVary) {
  const auto in = make_input(
      {{20}, {20}, {20}, {20}, {20}, {20}}, {}, {}, basic_params(100, 3));
  std::set<std::vector<int>> seen;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto b = find_random_feasible_binding(in, 3, seed);
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(in.binding_feasible(*b, 3));
    seen.insert(*b);
  }
  EXPECT_GT(seen.size(), 2u);  // different seeds explore different bindings
}

TEST(BbSolver, RandomBindingProvesInfeasibilityToo) {
  const auto in = make_input({{80}, {80}}, {}, {}, basic_params());
  EXPECT_FALSE(find_random_feasible_binding(in, 1, 3).has_value());
}

TEST(BbSolver, StatsReportNodes) {
  const auto in = make_input({{30}, {30}, {30}}, {}, {}, basic_params());
  solve_stats stats;
  const auto b = find_feasible_binding(in, 2, {}, &stats);
  ASSERT_TRUE(b.has_value());
  EXPECT_GT(stats.nodes, 0);
  EXPECT_TRUE(stats.complete);
}

TEST(BbSolver, ExactBandwidthFallbackAcceptsWhenEveryWindowFits) {
  // Peaks sum to 180 > WS = 100, so the quick accept cannot pass this
  // bus, but the window loads are 90/70/90: the window-by-window check
  // must accept one bus.
  const auto in = make_input({{60, 10, 0}, {0, 60, 30}, {30, 0, 60}}, {},
                             {}, basic_params());
  const auto b = search_feasible_binding(in, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(in.binding_feasible(*b, 1));
  const auto sol = find_min_overlap_binding(in, 1);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->binding, std::vector<int>({0, 0, 0}));
}

TEST(BbSolver, ExactBandwidthFallbackRejectsOneOverflowingWindow) {
  // Windows 1 and 2 fit (70, 90) but window 0 holds 101 > 100. Search
  // without the lower-bound pre-check so the DFS itself must reject.
  const auto in = make_input({{60, 10, 0}, {0, 60, 30}, {41, 0, 60}}, {},
                             {}, basic_params());
  solve_stats stats;
  EXPECT_FALSE(search_feasible_binding(in, 1, {}, &stats).has_value());
  EXPECT_TRUE(stats.complete);
  EXPECT_GT(stats.nodes, 0);
  EXPECT_FALSE(search_min_overlap_binding(in, 1).has_value());
  const auto b = find_feasible_binding(in, 2);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(in.binding_feasible(*b, 2));
}

TEST(BbSolver, ConflictMasksSpanSeveralWords) {
  // 70 targets need two 64-bit mask words. Masks are indexed by search
  // position (hardest first), so the demands are shaped to fix it:
  // targets 65-69 are busy in one window only and sort last, into the
  // second word; the other 65 are busy one cycle in each of 120 windows.
  // 65-66 and 67-68 conflict inside the second word; 10-69 conflicts
  // across the words (10 sorts first).
  const int T = 70;
  const int W = 120;
  std::vector<std::vector<cycle_t>> comm(
      T, std::vector<cycle_t>(static_cast<std::size_t>(W), 1));
  for (int i = 65; i < T; ++i) {
    comm[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(W), 0);
    comm[static_cast<std::size_t>(i)][0] = 1;
  }
  const auto in = make_input(comm, {}, {{65, 66}, {67, 68}, {10, 69}},
                             basic_params(100, 0));

  // First-fit would put everything on bus 0 if a mask word were skipped.
  solve_stats stats;
  EXPECT_FALSE(search_feasible_binding(in, 1, {}, &stats).has_value());
  EXPECT_TRUE(stats.complete);
  const auto b = find_feasible_binding(in, 2);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(in.binding_feasible(*b, 2));
  EXPECT_NE((*b)[65], (*b)[66]);
  EXPECT_NE((*b)[67], (*b)[68]);
  EXPECT_NE((*b)[10], (*b)[69]);
  const auto sol = find_min_overlap_binding(in, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(in.binding_feasible(sol->binding, 2));
  // Three buses exceed every conflict degree: random placement never
  // dead-ends.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto r = find_random_feasible_binding(in, 3, seed);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(in.binding_feasible(*r, 3));
  }
}

/// The request-direction model of mat1 at a short horizon: a real
/// application model whose searches are pinned node for node below.
synthesis_input mat1_model() {
  flow_options opts;
  opts.horizon = 10'000;
  opts.synth.params.window_size = 400;
  const auto traces =
      collect_traces(*workloads::make_app_by_name("mat1"), opts);
  return input_from_trace(traces.request,
                          effective_synthesis_params(opts, true));
}

TEST(BbSolver, AppModelSearchesArePinned) {
  // Values captured from the solver before its search state was
  // flattened: the same tree must be walked in the same order, with the
  // same random draws.
  const auto in = mat1_model();
  ASSERT_EQ(in.num_targets(), 13);
  ASSERT_EQ(lower_bound_buses(in), 4);

  solve_stats feas;
  const auto b = find_feasible_binding(in, 4, {}, &feas);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(feas.nodes, 14);
  EXPECT_EQ(*b, std::vector<int>({0, 1, 1, 1, 1, 2, 0, 2, 2, 2, 3, 0, 0}));

  solve_stats opt;
  const auto sol = find_min_overlap_binding(in, 4, {}, &opt);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(opt.nodes, 1720);
  EXPECT_EQ(sol->max_overlap, 41);
  EXPECT_EQ(sol->binding,
            std::vector<int>({2, 0, 1, 2, 2, 2, 1, 1, 3, 3, 1, 3, 0}));
  solve_stats opt5;
  ASSERT_TRUE(find_min_overlap_binding(in, 5, {}, &opt5).has_value());
  EXPECT_EQ(opt5.nodes, 908);

  const std::vector<std::vector<int>> random = {
      {3, 1, 2, 3, 1, 2, 1, 2, 0, 1, 0, 2, 3},
      {1, 1, 3, 0, 3, 2, 0, 0, 3, 2, 0, 1, 3},
      {2, 2, 1, 1, 0, 2, 0, 0, 3, 3, 3, 2, 0}};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto r = find_random_feasible_binding(in, 4, seed);
    ASSERT_TRUE(r.has_value()) << seed;
    EXPECT_EQ(*r, random[seed - 1]) << seed;
  }

  synthesis_options so;
  so.params = in.params();
  const auto design = synthesize(in, so);
  EXPECT_EQ(design.num_buses, 4);
  EXPECT_EQ(design.probes, 4);
  EXPECT_EQ(design.feasibility_nodes, 56);
  EXPECT_EQ(design.binding_nodes, 1720);
}

/// The big_fabric family at the xbargen analysis settings (window 400,
/// threshold 0.3, maxtb 4) and a short horizon.
flow_options big_fabric_options() {
  flow_options opts;
  opts.horizon = 8'000;
  opts.synth.params.window_size = 400;
  opts.synth.params.overlap_threshold = 0.30;
  opts.synth.params.max_targets_per_bus = 4;
  return opts;
}

/// One direction's sizing by the product search: bus count, probes and
/// feasibility nodes, as synthesize() records them.
struct sizing {
  int targets = 0;
  int buses = 0;
  int probes = 0;
  std::int64_t nodes = 0;
};

sizing size_direction(const collected_traces& traces,
                      const flow_options& opts, bool request) {
  const auto params = effective_synthesis_params(opts, request);
  const auto in =
      input_from_trace(request ? traces.request : traces.response, params);
  synthesis_options so;
  so.params = params;
  sizing out;
  out.targets = in.num_targets();
  out.buses = min_feasible_buses(in, so, &out.probes, &out.nodes);
  return out;
}

TEST(BbSolver, BigFabricSizingIsPinned) {
  // The product search alone sizes these 32- and 64-target models at
  // their lower bound, node for node. (big_fabric_32's REQUEST model is
  // the known gap: the first-pass search runs out of its default budget
  // at B=8, see ROADMAP.)
  const auto opts = big_fabric_options();
  const auto t64 = collect_traces(workloads::make_big_fabric_64(), opts);
  for (const bool request : {true, false}) {
    const auto d = size_direction(t64, opts, request);
    EXPECT_EQ(d.targets, 64) << request;
    EXPECT_EQ(d.buses, 16) << request;
    EXPECT_EQ(d.probes, 6) << request;
    EXPECT_EQ(d.nodes, 390) << request;
  }
  const auto t32 = collect_traces(workloads::make_big_fabric_32(), opts);
  const auto d = size_direction(t32, opts, /*request=*/false);
  EXPECT_EQ(d.targets, 32);
  EXPECT_EQ(d.buses, 8);
  EXPECT_EQ(d.probes, 5);
  EXPECT_EQ(d.nodes, 165);
}

/// Eq. 11 optimum by enumerating every binding; nullopt when none is
/// feasible.
std::optional<cycle_t> brute_force_optimum(const synthesis_input& in,
                                           int buses) {
  const int T = in.num_targets();
  std::vector<int> binding(static_cast<std::size_t>(T), 0);
  std::optional<cycle_t> best;
  while (true) {
    if (in.binding_feasible(binding, buses)) {
      const cycle_t v = in.max_bus_overlap(binding, buses);
      if (!best || v < *best) best = v;
    }
    int i = 0;
    while (i < T && ++binding[static_cast<std::size_t>(i)] == buses) {
      binding[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == T) return best;
  }
}

TEST(BbSolver, OptimumMatchesBruteForceOnRandomSmallModels) {
  int feasible = 0;
  for (int s = 0; s < 150; ++s) {
    rng r(0xB0B0ull + static_cast<std::uint64_t>(s));
    const int T = static_cast<int>(r.uniform_int(2, 8));
    const int W = static_cast<int>(r.uniform_int(1, 4));
    const int buses = static_cast<int>(r.uniform_int(1, 3));
    std::vector<std::vector<cycle_t>> comm(
        static_cast<std::size_t>(T),
        std::vector<cycle_t>(static_cast<std::size_t>(W), 0));
    for (auto& row : comm) {
      for (auto& c : row) c = r.chance(0.3) ? 0 : r.uniform_int(0, 60);
    }
    std::vector<std::vector<cycle_t>> om(
        static_cast<std::size_t>(T),
        std::vector<cycle_t>(static_cast<std::size_t>(T), 0));
    std::vector<std::pair<int, int>> conflicts;
    for (int i = 0; i < T; ++i) {
      for (int j = i + 1; j < T; ++j) {
        const cycle_t v = r.uniform_int(0, 50);
        om[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
        om[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = v;
        if (r.chance(0.1)) conflicts.emplace_back(i, j);
      }
    }
    const int maxtb = static_cast<int>(r.uniform_int(0, 4));
    const auto in = make_input(comm, om, conflicts, basic_params(100, maxtb));
    const auto expected = brute_force_optimum(in, buses);
    const auto sol = find_min_overlap_binding(in, buses);
    ASSERT_EQ(sol.has_value(), expected.has_value()) << "model " << s;
    if (!sol) continue;
    ++feasible;
    EXPECT_TRUE(sol->proven_optimal) << "model " << s;
    EXPECT_EQ(sol->max_overlap, *expected) << "model " << s;
  }
  EXPECT_GT(feasible, 30);  // the sample exercises the optimiser
}

TEST(BbSolver, RejectsNonPositiveBusCount) {
  const auto in = make_input({{10}}, {}, {}, basic_params());
  EXPECT_THROW(find_feasible_binding(in, 0), invalid_argument_error);
}

}  // namespace
}  // namespace stx::xbar
