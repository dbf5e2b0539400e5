#include "milp/branch_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "milp/presolve.h"
#include "obs/obs.h"
#include "util/error.h"

namespace stx::milp {

const char* to_string(milp_status s) {
  switch (s) {
    case milp_status::optimal: return "optimal";
    case milp_status::feasible: return "feasible";
    case milp_status::infeasible: return "infeasible";
    case milp_status::unbounded: return "unbounded";
    case milp_status::limit: return "limit";
  }
  return "?";
}

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Incumbent bookkeeping: one best integer point.
struct incumbent_pool {
  bool have = false;
  std::vector<double> x;
  double objective = inf;

  /// Snap integers exactly and keep on strict improvement.
  bool accept(const model& m, const std::vector<double>& raw, double obj,
              double gap_abs) {
    std::vector<double> snapped = raw;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (m.is_integer(v)) {
        snapped[static_cast<std::size_t>(v)] =
            std::round(snapped[static_cast<std::size_t>(v)]);
      }
    }
    if (!have || obj < objective - gap_abs) {
      x = std::move(snapped);
      objective = obj;
      have = true;
      return true;
    }
    return false;
  }

  /// Round-to-nearest heuristic: cheap incumbent seeding.
  bool try_rounding(const model& m, const std::vector<double>& raw,
                    double gap_abs) {
    std::vector<double> rounded = raw;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (!m.is_integer(v)) continue;
      auto& xv = rounded[static_cast<std::size_t>(v)];
      xv = std::round(xv);
      xv = std::clamp(xv, m.relaxation().var(v).lower,
                      m.relaxation().var(v).upper);
    }
    if (m.is_feasible(rounded, 1e-6)) {
      return accept(m, rounded, m.relaxation().objective_value(rounded),
                    gap_abs);
    }
    return false;
  }
};

// ===================================================================
// Serial best-first warm-started branch & bound.
//
// Pop the best open node, move the one LP solver's bounds to it,
// re-solve from the parent's basis, then prune, update pseudocosts,
// accept an incumbent or branch. Every step is a deterministic function
// of the model and the options.
// ===================================================================
class bb_engine {
 public:
  bb_engine(const model& m, const bb_options& opts)
      : m_(m), opts_(opts), solver_(m.relaxation(), {}) {
    start_ = std::chrono::steady_clock::now();
    const int n = m_.num_variables();
    root_lo_.resize(static_cast<std::size_t>(n));
    root_hi_.resize(static_cast<std::size_t>(n));
    pc_down_.resize(static_cast<std::size_t>(n));
    pc_up_.resize(static_cast<std::size_t>(n));
    pc_down_n_.assign(static_cast<std::size_t>(n), 0);
    pc_up_n_.assign(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      const auto& vv = m_.relaxation().var(v);
      root_lo_[static_cast<std::size_t>(v)] = vv.lower;
      root_hi_[static_cast<std::size_t>(v)] = vv.upper;
      // Pseudocost initialisation: the objective coefficient is the
      // first-order estimate of the degradation one unit of bound
      // movement causes; +1 keeps zero-cost variables (the feasibility
      // MILP) rankable by fractionality alone.
      pc_down_[static_cast<std::size_t>(v)] = std::abs(vv.objective) + 1.0;
      pc_up_[static_cast<std::size_t>(v)] = std::abs(vv.objective) + 1.0;
    }
  }

  bb_result run() {
    // The root is the first node: a cold solve with no bound changes.
    {
      auto root = std::make_shared<node>();
      root->id = next_id_++;
      open_.push(std::move(root));
    }
    while (!open_.empty() && !stop_) {
      if (out_of_budget()) {
        limit_hit_ = true;
        break;
      }
      node_ptr nd = open_.top();
      open_.pop();
      if (incumbent_.have && !opts_.feasibility_only &&
          nd->bound >= incumbent_.objective - opts_.gap_abs) {
        continue;  // pruned without an LP solve
      }
      process(nd, solve_node(*nd));
    }
    return assemble();
  }

 private:
  struct node {
    double bound = -inf;   ///< parent's LP objective: lower bound here
    std::int64_t id = 0;   ///< creation order; larger = newer
    int depth = 0;
    int var = -1;          ///< bound change vs the parent (none at root)
    double lo = 0.0, hi = 0.0;
    bool up = false;              ///< which side of the split this is
    double frac_moved = 0.0;      ///< fractional distance the bound moved
    std::shared_ptr<const node> parent;
    std::shared_ptr<const lp::basis_state> warm;  ///< parent's basis
  };
  using node_ptr = std::shared_ptr<const node>;

  /// Min-heap on the bound; ties pop the NEWEST node first — the
  /// deterministic DFS plunge that keeps the warm basis one bound-change
  /// away from the node it is applied to whenever bounds tie (the common
  /// case on the feasibility MILP, where every bound is zero).
  struct node_order {
    bool operator()(const node_ptr& a, const node_ptr& b) const {
      if (a->bound != b->bound) return a->bound > b->bound;
      return a->id < b->id;
    }
  };

  bool out_of_budget() const {
    if (nodes_ >= opts_.max_nodes) return true;
    if (opts_.time_limit_sec > 0.0) {
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
      if (elapsed > opts_.time_limit_sec) return true;
    }
    return false;
  }

  /// Moves the solver's bounds from whatever node it last solved to
  /// `nd`'s (reset what the previous chain touched, apply this chain;
  /// child-deepest setting wins within the chain).
  void apply_bounds(const node& nd) {
    std::unordered_map<int, std::pair<double, double>> wanted;
    for (const node* cur = &nd; cur != nullptr; cur = cur->parent.get()) {
      if (cur->var < 0) continue;
      wanted.emplace(cur->var, std::make_pair(cur->lo, cur->hi));
    }
    for (const int v : applied_) {
      if (wanted.find(v) == wanted.end()) {
        solver_.set_bounds(v, root_lo_[static_cast<std::size_t>(v)],
                           root_hi_[static_cast<std::size_t>(v)]);
      }
    }
    applied_.clear();
    for (const auto& [v, b] : wanted) {
      solver_.set_bounds(v, b.first, b.second);
      applied_.push_back(v);
    }
  }

  /// The node's LP relaxation, re-solved from the parent's basis. An
  /// internal cold restart (stale basis, singular factorization) counts
  /// as a cold solve: the telemetry names the engine that actually
  /// produced the answer.
  lp::solve_result solve_node(const node& nd) {
    apply_bounds(nd);
    ++nodes_;
    lp::solve_result rel;
    if (nd.warm != nullptr) {
      rel = solver_.solve_from(*nd.warm);
      if (solver_.last_solve_fell_back()) {
        ++cold_solves_;
      } else {
        ++warm_solves_;
      }
    } else {
      rel = solver_.solve();
      ++cold_solves_;
    }
    lp_iterations_ += rel.iterations;
    return rel;
  }

  std::pair<double, double> node_bounds(const node* nd, int v) const {
    for (const node* cur = nd; cur != nullptr; cur = cur->parent.get()) {
      if (cur->var == v) return {cur->lo, cur->hi};
    }
    return {root_lo_[static_cast<std::size_t>(v)],
            root_hi_[static_cast<std::size_t>(v)]};
  }

  /// Prune, learn pseudocosts, take an incumbent or branch on the
  /// solved node.
  void process(const node_ptr& nd, const lp::solve_result& rel) {
    if (rel.status == lp::solve_status::infeasible) return;
    if (rel.status == lp::solve_status::unbounded) {
      if (nd->depth == 0) {
        hit_unbounded_ = true;
      } else {
        limit_hit_ = true;  // deeper: cannot conclude, treat as limit
      }
      return;
    }
    if (rel.status == lp::solve_status::iteration_limit) {
      limit_hit_ = true;
      return;
    }

    // Pseudocost update: observed objective degradation per unit of
    // fractional distance the branching bound moved.
    if (nd->var >= 0 && nd->bound > -inf &&
        nd->frac_moved > opts_.int_tol) {
      const double gain =
          std::max(0.0, rel.objective - nd->bound) / nd->frac_moved;
      auto& pc = nd->up ? pc_up_ : pc_down_;
      auto& cnt = nd->up ? pc_up_n_ : pc_down_n_;
      const auto sv = static_cast<std::size_t>(nd->var);
      pc[sv] = (pc[sv] * cnt[sv] + gain) / (cnt[sv] + 1);
      ++cnt[sv];
      ++pseudocost_updates_;
    }

    if (incumbent_.have && !opts_.feasibility_only &&
        rel.objective >= incumbent_.objective - opts_.gap_abs) {
      return;  // bound prune on the solved objective
    }
    open_bound_ = std::min(open_bound_, rel.objective);

    // Pseudocost-weighted most-fractional branching: rank fractional
    // integer variables by estimated two-sided degradation; break ties
    // toward higher fractionality, then the smallest index (all
    // deterministic).
    int branch_var = -1;
    double best_score = 0.0;
    double best_dist = 0.0;
    for (int v = 0; v < m_.num_variables(); ++v) {
      if (!m_.is_integer(v)) continue;
      const double xv = rel.x[static_cast<std::size_t>(v)];
      const double f = xv - std::floor(xv);
      const double dist = std::min(f, 1.0 - f);
      if (dist <= opts_.int_tol) continue;
      const double est_down =
          std::max(pc_down_[static_cast<std::size_t>(v)] * f, 1e-6);
      const double est_up =
          std::max(pc_up_[static_cast<std::size_t>(v)] * (1.0 - f), 1e-6);
      const double score = est_down * est_up;
      if (branch_var < 0 || score > best_score + 1e-12 ||
          (score > best_score - 1e-12 && dist > best_dist + 1e-12)) {
        branch_var = v;
        best_score = score;
        best_dist = dist;
      }
    }

    if (branch_var < 0) {
      incumbent_.accept(m_, rel.x, rel.objective, opts_.gap_abs);
      if (opts_.feasibility_only) stop_ = true;
      return;
    }

    if (opts_.rounding_heuristic && !incumbent_.have) {
      incumbent_.try_rounding(m_, rel.x, opts_.gap_abs);
      if (incumbent_.have && opts_.feasibility_only) {
        stop_ = true;
        return;
      }
    }

    const double xv = rel.x[static_cast<std::size_t>(branch_var)];
    const double floor_v = std::floor(xv);
    const double ceil_v = floor_v + 1.0;
    const auto [cur_lo, cur_hi] = node_bounds(nd.get(), branch_var);
    const double f = xv - floor_v;

    // Children inherit this node's optimal basis; the heap caps how many
    // snapshots stay alive (beyond that, a child simply cold-solves —
    // correctness never depends on the warm path).
    std::shared_ptr<const lp::basis_state> basis;
    if (open_.size() < kMaxOpenWithBases) {
      basis = std::make_shared<const lp::basis_state>(solver_.last_basis());
    }

    // Push the farther-from-LP-value side first: the nearer side gets
    // the larger id and wins the tie-break, preserving the plunge order
    // under equal bounds.
    const bool up_first = f >= 0.5;
    for (int side = 0; side < 2; ++side) {
      const bool up = (side == 1) == up_first;
      auto child = std::make_shared<node>();
      child->bound = rel.objective;
      child->depth = nd->depth + 1;
      child->var = branch_var;
      child->up = up;
      child->parent = nd;
      child->warm = basis;
      if (up) {
        if (ceil_v > cur_hi + opts_.int_tol) continue;
        child->lo = ceil_v;
        child->hi = cur_hi;
        child->frac_moved = 1.0 - f;
      } else {
        if (floor_v < cur_lo - opts_.int_tol) continue;
        child->lo = cur_lo;
        child->hi = floor_v;
        child->frac_moved = f;
      }
      child->id = next_id_++;
      open_.push(std::move(child));
    }
    max_heap_depth_ = std::max(
        max_heap_depth_, static_cast<std::int64_t>(open_.size()));
  }

  // ------------------------------------------------------------ results

  bb_result assemble() {
    bb_result res;
    res.nodes = nodes_;
    res.lp_iterations = lp_iterations_;
    res.warm_solves = warm_solves_;
    res.cold_solves = cold_solves_;
    res.pseudocost_updates = pseudocost_updates_;
    res.max_heap_depth = max_heap_depth_;
    res.dual_pivots = solver_.dual_pivots();
    res.refactorizations = solver_.factorizations();
    const bool complete = !limit_hit_ && !stop_;
    if (incumbent_.have && (complete || opts_.feasibility_only)) {
      res.best_bound = incumbent_.objective;
    } else if (!open_.empty()) {
      // Best-bound order: the top of the heap IS the global lower bound
      // over the unexplored frontier.
      res.best_bound = std::min(open_.top()->bound, open_bound_);
    } else {
      res.best_bound = open_bound_;
    }
    if (incumbent_.have) {
      res.x = incumbent_.x;
      res.objective = incumbent_.objective;
      res.status =
          complete ? milp_status::optimal : milp_status::feasible;
      if (opts_.feasibility_only) res.status = milp_status::optimal;
    } else if (hit_unbounded_) {
      res.status = milp_status::unbounded;
    } else if (complete) {
      res.status = milp_status::infeasible;
    } else {
      res.status = milp_status::limit;
    }
    return res;
  }

  static constexpr std::size_t kMaxOpenWithBases = 65'536;

  const model& m_;
  const bb_options& opts_;
  lp::revised_solver solver_;
  std::vector<int> applied_;  ///< vars whose solver bounds differ from root
  std::chrono::steady_clock::time_point start_;

  std::vector<double> root_lo_, root_hi_;
  std::vector<double> pc_down_, pc_up_;
  std::vector<std::int64_t> pc_down_n_, pc_up_n_;

  std::priority_queue<node_ptr, std::vector<node_ptr>, node_order> open_;
  std::int64_t next_id_ = 0;

  std::int64_t nodes_ = 0;
  std::int64_t lp_iterations_ = 0;
  std::int64_t warm_solves_ = 0;
  std::int64_t cold_solves_ = 0;
  std::int64_t pseudocost_updates_ = 0;
  std::int64_t max_heap_depth_ = 0;
  incumbent_pool incumbent_;
  double open_bound_ = inf;
  bool limit_hit_ = false;
  bool stop_ = false;
  bool hit_unbounded_ = false;
};

bb_result solve_impl(const model& m, const bb_options& opts) {
  if (!opts.use_presolve) {
    bb_engine engine(m, opts);
    return engine.run();
  }

  const auto pre = presolve(m);
  if (pre.proven_infeasible) {
    bb_result res;
    res.status = milp_status::infeasible;
    return res;
  }

  if (pre.reduced.num_variables() == 0) {
    // Everything fixed by presolve; validate the point.
    bb_result res;
    const auto x = pre.expand({});
    if (m.is_feasible(x, 1e-6)) {
      res.status = milp_status::optimal;
      res.x = x;
      res.objective = m.relaxation().objective_value(x);
      res.best_bound = res.objective;
    } else {
      res.status = milp_status::infeasible;
    }
    return res;
  }

  bb_engine engine(pre.reduced, opts);
  auto res = engine.run();
  if (res.status == milp_status::optimal ||
      res.status == milp_status::feasible) {
    res.x = pre.expand(res.x);
    res.objective = m.relaxation().objective_value(res.x);
    STX_ENSURE(m.is_feasible(res.x, 1e-5),
               "branch & bound produced an infeasible incumbent");
  }
  return res;
}

}  // namespace

bb_result solve_branch_bound(const model& m, const bb_options& opts) {
  obs::span sp("milp.solve", {{"vars", m.num_variables()}});
  auto res = solve_impl(m, opts);
  if (obs::enabled()) {
    // Flushed post-hoc from the result so the node loop stays clean; all
    // fields are deterministic for a given model, so the counters stay
    // bit-identical across runs.
    obs::add_counter("milp.solves", 1);
    obs::add_counter("milp.nodes", res.nodes);
    obs::add_counter("milp.lp_iterations", res.lp_iterations);
    obs::add_counter("milp.warm_solves", res.warm_solves);
    obs::add_counter("milp.cold_solves", res.cold_solves);
    obs::add_counter("milp.pseudocost_updates", res.pseudocost_updates);
    obs::add_counter("lp.dual_pivots", res.dual_pivots);
    obs::add_counter("lp.refactorizations", res.refactorizations);
    obs::gauge_max("milp.heap_depth_max", res.max_heap_depth);
    sp.set_attr({"status", to_string(res.status)});
    sp.set_attr({"nodes", res.nodes});
  }
  return res;
}

}  // namespace stx::milp
