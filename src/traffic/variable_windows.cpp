#include "traffic/variable_windows.h"

#include <algorithm>

#include "traffic/windows.h"
#include "util/error.h"

namespace stx::traffic {

window_partition::window_partition(std::vector<cycle_t> boundaries)
    : boundaries_(std::move(boundaries)) {
  STX_REQUIRE(boundaries_.size() >= 2, "partition needs at least one window");
  STX_REQUIRE(boundaries_.front() == 0, "partition must start at cycle 0");
  for (std::size_t k = 1; k < boundaries_.size(); ++k) {
    STX_REQUIRE(boundaries_[k] > boundaries_[k - 1],
                "partition boundaries must be strictly increasing");
  }
}

window_partition window_partition::uniform(cycle_t horizon,
                                           cycle_t window_size) {
  STX_REQUIRE(horizon > 0 && window_size > 0, "uniform partition arguments");
  std::vector<cycle_t> bounds;
  for (cycle_t b = 0; b < horizon; b += window_size) bounds.push_back(b);
  bounds.push_back(horizon);
  return window_partition(std::move(bounds));
}

window_partition window_partition::burst_adaptive(
    const trace& t, cycle_t target_busy_per_window, cycle_t min_size,
    cycle_t max_size) {
  STX_REQUIRE(target_busy_per_window > 0, "target busy must be positive");
  STX_REQUIRE(min_size > 0 && min_size <= max_size,
              "window size clamp malformed");
  const cycle_t horizon = std::max<cycle_t>(t.horizon(), 1);

  // Aggregate activity as merged per-target interval lists; walk forward
  // placing a boundary whenever the accumulated busy mass reaches the
  // target (clamped to [min_size, max_size] wall-clock length).
  std::vector<std::vector<std::pair<cycle_t, cycle_t>>> busy;
  busy.reserve(static_cast<std::size_t>(t.num_targets()));
  for (auto& target : t.busy_intervals_by_target()) {
    busy.push_back(std::move(target.all));
  }
  auto busy_in = [&](cycle_t lo, cycle_t hi) {
    cycle_t acc = 0;
    for (const auto& list : busy) {
      for (const auto& [b, e] : list) {
        if (b >= hi) break;
        acc += std::max<cycle_t>(0, std::min(e, hi) - std::max(b, lo));
      }
    }
    return acc;
  };

  std::vector<cycle_t> bounds = {0};
  cycle_t cursor = 0;
  while (cursor < horizon) {
    // Grow the window until it holds enough busy mass or hits max_size.
    cycle_t lo = cursor + min_size;
    cycle_t hi = std::min(cursor + max_size, horizon);
    if (lo >= horizon) {
      bounds.push_back(horizon);
      break;
    }
    // Binary search the smallest end in [lo, hi] reaching the target.
    cycle_t left = lo, right = hi;
    while (left < right) {
      const cycle_t mid = left + (right - left) / 2;
      if (busy_in(cursor, mid) >= target_busy_per_window) {
        right = mid;
      } else {
        left = mid + 1;
      }
    }
    cursor = left;
    bounds.push_back(cursor);
  }
  if (bounds.back() != horizon) bounds.push_back(horizon);
  return window_partition(std::move(bounds));
}

cycle_t window_partition::begin(int m) const {
  STX_REQUIRE(m >= 0 && m < num_windows(), "window index out of range");
  return boundaries_[static_cast<std::size_t>(m)];
}

cycle_t window_partition::end(int m) const {
  STX_REQUIRE(m >= 0 && m < num_windows(), "window index out of range");
  return boundaries_[static_cast<std::size_t>(m) + 1];
}

cycle_t window_partition::max_size() const {
  cycle_t best = 0;
  for (int m = 0; m < num_windows(); ++m) best = std::max(best, size(m));
  return best;
}

namespace {

/// Busy cycles of a sorted interval list inside [lo, hi).
cycle_t clip_total(const std::vector<std::pair<cycle_t, cycle_t>>& list,
                   cycle_t lo, cycle_t hi) {
  cycle_t acc = 0;
  for (const auto& [b, e] : list) {
    if (b >= hi) break;
    acc += std::max<cycle_t>(0, std::min(e, hi) - std::max(b, lo));
  }
  return acc;
}

}  // namespace

variable_window_analysis::variable_window_analysis(
    const trace& t, const window_partition& part)
    : part_(part), num_targets_(t.num_targets()) {
  const auto n = static_cast<std::size_t>(num_targets_);
  const auto w = static_cast<std::size_t>(part_.num_windows());
  comm_.assign(n * w, 0);
  const std::size_t pairs = n * (n - 1) / 2;
  wo_.assign(pairs * w, 0);
  pair_total_.assign(pairs, 0);
  pair_max_frac_.assign(pairs, 0.0);
  pair_critical_.assign(pairs, 0);

  std::vector<std::vector<std::pair<cycle_t, cycle_t>>> busy(n), crit(n);
  auto by_target = t.busy_intervals_by_target();
  for (std::size_t i = 0; i < n; ++i) {
    busy[i] = std::move(by_target[i].all);
    crit[i] = std::move(by_target[i].critical);
  }

  for (int i = 0; i < num_targets_; ++i) {
    for (int m = 0; m < part_.num_windows(); ++m) {
      comm_[static_cast<std::size_t>(i) * w + static_cast<std::size_t>(m)] =
          clip_total(busy[static_cast<std::size_t>(i)], part_.begin(m),
                     part_.end(m));
    }
  }

  for (int i = 0; i < num_targets_; ++i) {
    for (int j = i + 1; j < num_targets_; ++j) {
      const auto p = static_cast<std::size_t>(pair_index(i, j));
      for (int m = 0; m < part_.num_windows(); ++m) {
        const cycle_t ov = interval_overlap(
            busy[static_cast<std::size_t>(i)],
            busy[static_cast<std::size_t>(j)], part_.begin(m), part_.end(m));
        wo_[p * w + static_cast<std::size_t>(m)] = ov;
        pair_total_[p] += ov;
        pair_max_frac_[p] = std::max(
            pair_max_frac_[p],
            static_cast<double>(ov) / static_cast<double>(part_.size(m)));
      }
      pair_critical_[p] =
          interval_overlap(crit[static_cast<std::size_t>(i)],
                           crit[static_cast<std::size_t>(j)], 0,
                           part_.horizon());
    }
  }
}

int variable_window_analysis::pair_index(int i, int j) const {
  STX_REQUIRE(i >= 0 && j >= 0 && i < num_targets_ && j < num_targets_ &&
                  i != j,
              "pair index out of range");
  if (i > j) std::swap(i, j);
  return i * num_targets_ - i * (i + 1) / 2 + (j - i - 1);
}

cycle_t variable_window_analysis::comm(int target, int window) const {
  STX_REQUIRE(target >= 0 && target < num_targets_, "target out of range");
  STX_REQUIRE(window >= 0 && window < num_windows(), "window out of range");
  return comm_[static_cast<std::size_t>(target) *
                   static_cast<std::size_t>(num_windows()) +
               static_cast<std::size_t>(window)];
}

cycle_t variable_window_analysis::pair_window_overlap(int i, int j,
                                                      int window) const {
  STX_REQUIRE(window >= 0 && window < num_windows(), "window out of range");
  if (i == j) return 0;
  return wo_[static_cast<std::size_t>(pair_index(i, j)) *
                 static_cast<std::size_t>(num_windows()) +
             static_cast<std::size_t>(window)];
}

cycle_t variable_window_analysis::total_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_total_[static_cast<std::size_t>(pair_index(i, j))];
}

double variable_window_analysis::max_window_overlap_fraction(int i,
                                                             int j) const {
  if (i == j) return 0.0;
  return pair_max_frac_[static_cast<std::size_t>(pair_index(i, j))];
}

cycle_t variable_window_analysis::critical_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_critical_[static_cast<std::size_t>(pair_index(i, j))];
}

}  // namespace stx::traffic
