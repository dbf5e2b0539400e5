#include "xbar/bb_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"
#include "util/random.h"

namespace stx::xbar {

namespace {

constexpr cycle_t kNoIncumbent = std::numeric_limits<cycle_t>::max();

/// Shared DFS engine for feasibility / optimisation / random binding.
/// The search state and the Eq. 4 quick-accept invariant are described
/// in bb_solver.h; a node allocates nothing.
class xbar_search {
 public:
  enum class mode { feasibility, optimize, random };

  xbar_search(const synthesis_input& input, int num_buses, mode m,
              const solver_options& opts, std::uint64_t seed)
      : num_targets_(input.num_targets()),
        num_buses_(num_buses),
        num_windows_(input.num_windows()),
        words_((input.num_targets() + 63) / 64),
        max_per_bus_(input.params().max_targets_per_bus),
        mode_(m),
        opts_(opts),
        rng_(seed) {
    const int T = num_targets_;
    const int W = num_windows_;
    const auto sT = static_cast<std::size_t>(T);
    const auto sW = static_cast<std::size_t>(W);

    // Hardest-first target order: high peak demand and high conflict
    // degree first (fail-first keeps the tree small). Random mode keeps
    // a shuffled order instead.
    order_.resize(sT);
    std::iota(order_.begin(), order_.end(), 0);
    if (mode_ == mode::random) {
      rng_.shuffle(order_);
    } else {
      std::vector<double> score(sT, 0.0);
      for (int i = 0; i < T; ++i) {
        double s = 0.0;
        for (int m2 = 0; m2 < W; ++m2) {
          s += static_cast<double>(input.comm(i, m2));
        }
        int deg = 0;
        for (int j = 0; j < T; ++j) {
          if (j != i && input.conflict(i, j)) ++deg;
        }
        score[static_cast<std::size_t>(i)] =
            s + static_cast<double>(deg) *
                    static_cast<double>(input.window_size());
      }
      std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
        return score[static_cast<std::size_t>(a)] >
               score[static_cast<std::size_t>(b)];
      });
    }

    // Model rows by search position.
    capacity_.resize(sW);
    min_capacity_ = std::numeric_limits<cycle_t>::max();
    for (int w = 0; w < W; ++w) {
      capacity_[static_cast<std::size_t>(w)] = input.capacity(w);
      min_capacity_ = std::min(min_capacity_, input.capacity(w));
    }
    om_.assign(sT * sT, 0);
    comm_.assign(sT * sW, 0);
    peak_.assign(sT, 0);
    conflict_.assign(sT * static_cast<std::size_t>(words_), 0);
    demand_begin_.assign(sT + 1, 0);
    for (int p = 0; p < T; ++p) {
      const int i = order_[static_cast<std::size_t>(p)];
      const auto sp = static_cast<std::size_t>(p);
      for (int q = 0; q < T; ++q) {
        const int j = order_[static_cast<std::size_t>(q)];
        om_[sp * sT + static_cast<std::size_t>(q)] = input.om(i, j);
        if (q != p && input.conflict(i, j)) {
          conflict_[sp * static_cast<std::size_t>(words_) +
                    static_cast<std::size_t>(q / 64)] |=
              std::uint64_t{1} << (q % 64);
        }
      }
      for (int w = 0; w < W; ++w) {
        const cycle_t c = input.comm(i, w);
        comm_[sp * sW + static_cast<std::size_t>(w)] = c;
        peak_[sp] = std::max(peak_[sp], c);
        if (c > 0) demand_.push_back({w, c});
      }
      demand_begin_[sp + 1] = demand_.size();
    }

    const auto sB = static_cast<std::size_t>(num_buses_);
    member_stride_ = max_per_bus_ > 0 ? std::min(max_per_bus_, T) : T;
    members_.assign(sB * static_cast<std::size_t>(member_stride_), 0);
    size_.assign(sB, 0);
    mask_.assign(sB * static_cast<std::size_t>(words_), 0);
    peak_sum_.assign(sB, 0);
    overlap_.assign(sB, 0);
    binding_.assign(sT, -1);
    cand_.assign(sT * sB, 0);
    delta_.assign(sT * sB, 0);
    start_ = std::chrono::steady_clock::now();
  }

  /// Runs the search; returns true when an answer (sat or proven unsat)
  /// was reached within limits.
  bool run() {
    found_ = dfs(0, 0, 0);
    return !limit_hit_;
  }

  bool found() const { return found_ || !best_binding_.empty(); }
  const std::vector<int>& best_binding() const { return best_binding_; }
  /// Eq. 11 objective of best_binding(); tracked in optimize mode only.
  cycle_t best_overlap() const { return best_overlap_; }
  std::int64_t nodes() const { return nodes_; }
  bool complete() const { return !limit_hit_; }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  struct demand {
    int window;
    cycle_t cycles;
  };

  bool out_of_budget() {
    if (nodes_ >= opts_.max_nodes) return true;
    return (nodes_ & 0x3ff) == 0 && opts_.time_limit_sec > 0.0 &&
           seconds() > opts_.time_limit_sec;
  }

  const int* members(int k) const {
    return &members_[static_cast<std::size_t>(k) *
                     static_cast<std::size_t>(member_stride_)];
  }

  /// Overlap position p would add to bus k (sum of om with members).
  cycle_t overlap_delta(int p, int k) const {
    const cycle_t* row = &om_[static_cast<std::size_t>(p) *
                              static_cast<std::size_t>(num_targets_)];
    const int* mem = members(k);
    cycle_t acc = 0;
    for (int n = 0; n < size_[static_cast<std::size_t>(k)]; ++n) {
      acc += row[mem[n]];
    }
    return acc;
  }

  /// Eq. 4 for position p joining bus k.
  bool bandwidth_ok(int p, int k) const {
    const auto sk = static_cast<std::size_t>(k);
    if (peak_sum_[sk] + peak_[static_cast<std::size_t>(p)] <= min_capacity_) {
      return true;
    }
    const int* mem = members(k);
    const int n = size_[sk];
    const auto W = static_cast<std::size_t>(num_windows_);
    for (std::size_t d = demand_begin_[static_cast<std::size_t>(p)];
         d < demand_begin_[static_cast<std::size_t>(p) + 1]; ++d) {
      const auto w = static_cast<std::size_t>(demand_[d].window);
      cycle_t load = demand_[d].cycles;
      for (int m = 0; m < n; ++m) {
        load += comm_[static_cast<std::size_t>(mem[m]) * W + w];
      }
      if (load > capacity_[w]) return false;
    }
    return true;
  }

  /// Eq. 7, 8 and 4 for position p joining bus k.
  bool placement_ok(int p, int k) const {
    if (max_per_bus_ > 0 &&
        size_[static_cast<std::size_t>(k)] >= max_per_bus_) {
      return false;
    }
    const std::uint64_t* bus = &mask_[static_cast<std::size_t>(k) *
                                      static_cast<std::size_t>(words_)];
    const std::uint64_t* conf = &conflict_[static_cast<std::size_t>(p) *
                                           static_cast<std::size_t>(words_)];
    for (int w = 0; w < words_; ++w) {
      if ((bus[w] & conf[w]) != 0) return false;
    }
    return bandwidth_ok(p, k);
  }

  void place(int p, int k, cycle_t delta) {
    const auto sk = static_cast<std::size_t>(k);
    members_[sk * static_cast<std::size_t>(member_stride_) +
             static_cast<std::size_t>(size_[sk])] = p;
    ++size_[sk];
    mask_[sk * static_cast<std::size_t>(words_) +
          static_cast<std::size_t>(p / 64)] |= std::uint64_t{1} << (p % 64);
    peak_sum_[sk] += peak_[static_cast<std::size_t>(p)];
    overlap_[sk] += delta;
    binding_[static_cast<std::size_t>(order_[static_cast<std::size_t>(p)])] =
        k;
  }

  void unplace(int p, int k, cycle_t delta) {
    const auto sk = static_cast<std::size_t>(k);
    --size_[sk];
    mask_[sk * static_cast<std::size_t>(words_) +
          static_cast<std::size_t>(p / 64)] &= ~(std::uint64_t{1} << (p % 64));
    peak_sum_[sk] -= peak_[static_cast<std::size_t>(p)];
    overlap_[sk] -= delta;
  }

  /// `used` = number of buses currently holding at least one target
  /// (always buses 0..used-1); `cur_max` = the current maximum per-bus
  /// overlap (the running Eq. 11 objective, optimize mode only).
  bool dfs(int depth, int used, cycle_t cur_max) {
    if (out_of_budget()) {
      limit_hit_ = true;
      return false;
    }
    ++nodes_;

    if (depth == num_targets_) {
      if (mode_ == mode::optimize) {
        if (cur_max < best_overlap_) {
          best_overlap_ = cur_max;
          best_binding_ = binding_;
        }
        return false;  // keep searching for better bindings
      }
      best_binding_ = binding_;
      return true;  // feasibility / random: first solution wins
    }

    // Symmetry breaking: existing buses plus at most one fresh bus.
    const int reach = std::min(used + 1, num_buses_);
    const std::size_t base =
        static_cast<std::size_t>(depth) * static_cast<std::size_t>(num_buses_);
    int* cand = &cand_[base];
    cycle_t* delta = &delta_[base];
    if (mode_ == mode::optimize) {
      // Cheapest-overlap-first child order finds tight incumbents early;
      // a stable insertion sort on the delta keeps ties in bus order.
      for (int k = 0; k < reach; ++k) {
        const cycle_t d = overlap_delta(depth, k);
        int n = k;
        for (; n > 0 && delta[n - 1] > d; --n) {
          cand[n] = cand[n - 1];
          delta[n] = delta[n - 1];
        }
        cand[n] = k;
        delta[n] = d;
      }
    } else {
      for (int k = 0; k < reach; ++k) {
        cand[k] = k;
        delta[k] = 0;
      }
      if (mode_ == mode::random) {
        rng_.shuffle(cand, static_cast<std::size_t>(reach));
      }
    }

    for (int n = 0; n < reach; ++n) {
      const int k = cand[n];
      cycle_t next_max = cur_max;
      if (mode_ == mode::optimize) {
        // Bound: max overlap only grows as targets are added.
        next_max = std::max(cur_max, overlap_[static_cast<std::size_t>(k)] +
                                         delta[n]);
        if (next_max >= best_overlap_) continue;
      }
      if (!placement_ok(depth, k)) continue;
      place(depth, k, delta[n]);
      const int next_used =
          used + (size_[static_cast<std::size_t>(k)] == 1 ? 1 : 0);
      if (dfs(depth + 1, next_used, next_max)) return true;
      unplace(depth, k, delta[n]);
      if (limit_hit_) return false;
    }
    return false;
  }

  const int num_targets_;
  const int num_buses_;
  const int num_windows_;
  const int words_;        ///< 64-bit words per position mask
  const int max_per_bus_;  ///< maxtb; <= 0 means uncapped
  mode mode_;
  solver_options opts_;
  rng rng_;

  // The model, by search position p (order_[p] is its target id).
  std::vector<int> order_;
  std::vector<cycle_t> om_;              ///< T x T
  std::vector<cycle_t> comm_;            ///< T x W
  std::vector<std::uint64_t> conflict_;  ///< T x words_
  std::vector<cycle_t> peak_;            ///< max_m comm[p][m]
  std::vector<demand> demand_;           ///< non-zero comm, rows of p
  std::vector<std::size_t> demand_begin_;
  std::vector<cycle_t> capacity_;
  cycle_t min_capacity_ = 0;

  // Per-bus state.
  int member_stride_ = 0;
  std::vector<int> members_;          ///< B x member_stride_ positions
  std::vector<int> size_;
  std::vector<std::uint64_t> mask_;   ///< B x words_ member positions
  std::vector<cycle_t> peak_sum_;     ///< sum of members' peak_
  std::vector<cycle_t> overlap_;      ///< summed pairwise om of members
  std::vector<int> binding_;          ///< target id -> bus

  // Per-depth child order and overlap deltas (T x B).
  std::vector<int> cand_;
  std::vector<cycle_t> delta_;

  std::vector<int> best_binding_;
  cycle_t best_overlap_ = kNoIncumbent;
  bool found_ = false;
  bool limit_hit_ = false;
  std::int64_t nodes_ = 0;
  std::chrono::steady_clock::time_point start_;
};

void fill_stats(const xbar_search& search, solve_stats* stats) {
  if (stats == nullptr) return;
  stats->nodes = search.nodes();
  stats->complete = search.complete();
  stats->seconds = search.seconds();
}

}  // namespace

int lower_bound_buses(const synthesis_input& input) {
  const int T = input.num_targets();
  int lb = 1;

  // Bandwidth: every window's total demand must fit in B buses.
  for (int m = 0; m < input.num_windows(); ++m) {
    cycle_t total = 0;
    for (int i = 0; i < T; ++i) total += input.comm(i, m);
    const auto need = static_cast<int>(
        (total + input.capacity(m) - 1) / input.capacity(m));
    lb = std::max(lb, need);
  }

  // Cardinality (Eq. 8).
  const int maxtb = input.params().max_targets_per_bus;
  if (maxtb > 0) lb = std::max(lb, (T + maxtb - 1) / maxtb);

  // Conflict clique (greedy): every clique member needs its own bus.
  std::vector<int> degree(static_cast<std::size_t>(T), 0);
  for (int i = 0; i < T; ++i) {
    for (int j = 0; j < T; ++j) {
      if (i != j && input.conflict(i, j)) {
        ++degree[static_cast<std::size_t>(i)];
      }
    }
  }
  std::vector<int> by_degree(static_cast<std::size_t>(T));
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return degree[static_cast<std::size_t>(a)] >
           degree[static_cast<std::size_t>(b)];
  });
  std::vector<int> clique;
  for (int v : by_degree) {
    bool joins = true;
    for (int u : clique) {
      if (!input.conflict(u, v)) {
        joins = false;
        break;
      }
    }
    if (joins) clique.push_back(v);
  }
  lb = std::max(lb, static_cast<int>(clique.size()));
  return std::min(lb, std::max(T, 1));
}

std::optional<std::vector<int>> find_feasible_binding(
    const synthesis_input& input, int num_buses, const solver_options& opts,
    solve_stats* stats) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  if (lower_bound_buses(input) > num_buses) {
    if (stats != nullptr) *stats = {0, true, 0.0};
    return std::nullopt;  // proven infeasible without search
  }
  return search_feasible_binding(input, num_buses, opts, stats);
}

std::optional<std::vector<int>> search_feasible_binding(
    const synthesis_input& input, int num_buses, const solver_options& opts,
    solve_stats* stats) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  xbar_search search(input, num_buses, xbar_search::mode::feasibility, opts,
                     /*seed=*/1);
  const bool answered = search.run();
  fill_stats(search, stats);
  STX_REQUIRE(answered, "feasibility search hit limits; raise solver_options");
  if (!search.found()) return std::nullopt;
  auto binding = search.best_binding();
  STX_ENSURE(input.binding_feasible(binding, num_buses),
             "solver produced an infeasible binding");
  return binding;
}

std::optional<binding_solution> find_min_overlap_binding(
    const synthesis_input& input, int num_buses, const solver_options& opts,
    solve_stats* stats) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  if (lower_bound_buses(input) > num_buses) {
    if (stats != nullptr) *stats = {0, true, 0.0};
    return std::nullopt;
  }
  return search_min_overlap_binding(input, num_buses, opts, stats);
}

std::optional<binding_solution> search_min_overlap_binding(
    const synthesis_input& input, int num_buses, const solver_options& opts,
    solve_stats* stats) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  xbar_search search(input, num_buses, xbar_search::mode::optimize, opts,
                     /*seed=*/1);
  search.run();
  fill_stats(search, stats);
  if (!search.found()) {
    STX_REQUIRE(search.complete(),
                "binding search hit limits before any solution; raise "
                "solver_options");
    return std::nullopt;
  }
  binding_solution out;
  out.binding = search.best_binding();
  out.max_overlap = search.best_overlap();
  out.proven_optimal = search.complete();
  STX_ENSURE(input.binding_feasible(out.binding, num_buses),
             "solver produced an infeasible binding");
  STX_ENSURE(input.max_bus_overlap(out.binding, num_buses) ==
                 out.max_overlap,
             "objective bookkeeping diverged from recomputation");
  return out;
}

std::optional<std::vector<int>> find_random_feasible_binding(
    const synthesis_input& input, int num_buses, std::uint64_t seed,
    const solver_options& opts) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  if (lower_bound_buses(input) > num_buses) return std::nullopt;
  xbar_search search(input, num_buses, xbar_search::mode::random, opts,
                     seed);
  const bool answered = search.run();
  STX_REQUIRE(answered, "random binding search hit limits");
  if (!search.found()) return std::nullopt;
  return search.best_binding();
}

}  // namespace stx::xbar
