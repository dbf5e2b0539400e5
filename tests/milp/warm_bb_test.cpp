// Warm-started incremental branch & bound: engine telemetry on random 0/1
// programs, and the symmetry-group declaration (lexicographic ordering
// rows).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "milp/branch_bound.h"
#include "milp/model.h"
#include "milp/presolve.h"
#include "util/error.h"
#include "util/random.h"

namespace stx::milp {
namespace {

struct random_bip {
  model m;
  int n_vars = 0;
};

random_bip make_random_bip(rng& r, int n_vars, int n_rows) {
  random_bip out;
  out.n_vars = n_vars;
  for (int v = 0; v < n_vars; ++v) {
    out.m.add_binary(r.uniform(-5.0, 5.0));
  }
  for (int rr = 0; rr < n_rows; ++rr) {
    std::vector<lp::term> terms;
    for (int v = 0; v < n_vars; ++v) {
      if (r.chance(0.5)) terms.push_back({v, r.uniform(-4.0, 4.0)});
    }
    if (terms.empty()) continue;
    const int kind = static_cast<int>(r.uniform_int(0, 2));
    const double rhs = r.uniform(-3.0, 5.0);
    const auto rel = kind == 0   ? lp::relation::less_equal
                     : kind == 1 ? lp::relation::greater_equal
                                 : lp::relation::equal;
    if (rel == lp::relation::equal) {
      double acc = 0.0;
      for (const auto& t : terms) {
        if (r.chance(0.5)) acc += t.value;
      }
      out.m.add_row(terms, rel, acc);
    } else {
      out.m.add_row(terms, rel, rhs);
    }
  }
  return out;
}

class WarmEngine : public ::testing::TestWithParam<int> {};

TEST_P(WarmEngine, EngineReportsWarmSolves) {
  // Any search that branches must re-solve children from the parent
  // basis; only the root (and fallback restarts) may cold-solve. Every
  // node is exactly one LP solve.
  rng r(static_cast<std::uint64_t>(GetParam()) * 88811 + 3);
  auto inst = make_random_bip(r, 10, 6);
  bb_options opts;
  opts.use_presolve = false;  // keep the node structure un-reduced
  opts.rounding_heuristic = false;
  const auto w = solve_branch_bound(inst.m, opts);
  if (w.nodes > 1) {
    EXPECT_GT(w.warm_solves, 0) << "seed=" << GetParam();
  }
  EXPECT_GE(w.nodes, 1) << "seed=" << GetParam();
  EXPECT_GE(w.cold_solves, 1) << "seed=" << GetParam();
  EXPECT_EQ(w.nodes, w.warm_solves + w.cold_solves) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmEngine, ::testing::Range(0, 40));

/// A deliberately symmetric model: the min-makespan shape of Eq. 11 —
/// place T weighted "targets" on B identical "buses" minimizing the
/// maximum bus load. Fully bus-permutation symmetric and fractional at
/// the root, so the plain tree re-explores every permutation orbit. The
/// symmetry group declaration must not change the optimum, and must
/// shrink the tree.
model make_symmetric_model(int T, int B, bool declare_group) {
  model m;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(T));
  for (int i = 0; i < T; ++i) {
    for (int k = 0; k < B; ++k) {
      x[static_cast<std::size_t>(i)].push_back(m.add_binary(0.0));
    }
  }
  const int z = m.add_continuous(0.0, lp::infinity, 1.0, "makespan");
  for (int i = 0; i < T; ++i) {
    std::vector<lp::term> row;
    for (int k = 0; k < B; ++k) {
      row.push_back({x[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(k)],
                     1.0});
    }
    m.add_row(row, lp::relation::equal, 1.0);
  }
  for (int k = 0; k < B; ++k) {
    std::vector<lp::term> load;
    for (int i = 0; i < T; ++i) {
      load.push_back({x[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(k)],
                      static_cast<double>(3 + i)});
    }
    load.push_back({z, -1.0});
    m.add_row(load, lp::relation::less_equal, 0.0);
  }
  if (declare_group) {
    std::vector<std::vector<int>> blocks(static_cast<std::size_t>(B));
    for (int k = 0; k < B; ++k) {
      for (int i = 0; i < T; ++i) {
        blocks[static_cast<std::size_t>(k)].push_back(
            x[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]);
      }
    }
    m.add_symmetry_group(std::move(blocks));
  }
  return m;
}

TEST(SymmetryBreaking, PreservesTheOptimumAndPrunesTheTree) {
  const auto plain = make_symmetric_model(7, 3, false);
  const auto broken = make_symmetric_model(7, 3, true);
  bb_options opts;
  opts.rounding_heuristic = false;  // measure the tree, not the heuristic
  const auto a = solve_branch_bound(plain, opts);
  const auto b = solve_branch_bound(broken, opts);
  ASSERT_EQ(a.status, milp_status::optimal);
  ASSERT_EQ(b.status, milp_status::optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  EXPECT_LT(b.nodes, a.nodes);
  EXPECT_TRUE(broken.is_feasible(b.x, 1e-6));
}

TEST(SymmetryBreaking, LexRowsAppearInPresolve) {
  const auto broken = make_symmetric_model(4, 3, true);
  const auto plain = make_symmetric_model(4, 3, false);
  const auto pb = presolve(broken);
  const auto pp = presolve(plain);
  ASSERT_FALSE(pb.proven_infeasible);
  // B-1 = 2 lexicographic ordering rows between consecutive blocks, and
  // nothing else changes (the lex rows cannot tighten free binaries).
  EXPECT_EQ(pb.reduced.num_rows(), pp.reduced.num_rows() + 2);
}

TEST(SymmetryBreaking, RejectsMalformedGroups) {
  model m;
  const int a = m.add_binary(1.0);
  const int b = m.add_binary(1.0);
  const int c = m.add_continuous(0.0, 1.0, 1.0);
  EXPECT_THROW(m.add_symmetry_group({{a}}), invalid_argument_error);
  EXPECT_THROW(m.add_symmetry_group({{a}, {b, a}}), invalid_argument_error);
  EXPECT_THROW(m.add_symmetry_group({{a}, {c}}), invalid_argument_error);
  EXPECT_THROW(m.add_symmetry_group({{a}, {99}}), invalid_argument_error);
  // A well-formed group is accepted and recorded.
  m.add_symmetry_group({{a}, {b}});
  EXPECT_EQ(m.symmetry_groups().size(), 1u);
}

}  // namespace
}  // namespace stx::milp
