#include "traffic/windows.h"

#include <algorithm>

#include "util/error.h"

namespace stx::traffic {

cycle_t interval_overlap(const std::vector<std::pair<cycle_t, cycle_t>>& a,
                         const std::vector<std::pair<cycle_t, cycle_t>>& b,
                         cycle_t lo, cycle_t hi) {
  cycle_t acc = 0;
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() && ib < b.size()) {
    const cycle_t begin =
        std::max({a[ia].first, b[ib].first, lo});
    const cycle_t end = std::min({a[ia].second, b[ib].second, hi});
    if (end > begin) acc += end - begin;
    // Advance whichever interval finishes first.
    if (a[ia].second <= b[ib].second) {
      ++ia;
    } else {
      ++ib;
    }
    if (begin >= hi) break;
  }
  return acc;
}

namespace {

/// Intersection of two sorted disjoint interval lists.
std::vector<std::pair<cycle_t, cycle_t>> intersect(
    const std::vector<std::pair<cycle_t, cycle_t>>& a,
    const std::vector<std::pair<cycle_t, cycle_t>>& b) {
  std::vector<std::pair<cycle_t, cycle_t>> out;
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() && ib < b.size()) {
    const cycle_t begin = std::max(a[ia].first, b[ib].first);
    const cycle_t end = std::min(a[ia].second, b[ib].second);
    if (end > begin) out.emplace_back(begin, end);
    if (a[ia].second <= b[ib].second) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return out;
}

}  // namespace

window_analysis::window_analysis(const trace& t, cycle_t window_size)
    : window_size_(window_size), num_targets_(t.num_targets()) {
  STX_REQUIRE(window_size > 0, "window size must be positive");
  const cycle_t horizon = std::max<cycle_t>(t.horizon(), 1);
  num_windows_ =
      static_cast<int>((horizon + window_size - 1) / window_size);

  const auto n = static_cast<std::size_t>(num_targets_);
  const auto w = static_cast<std::size_t>(num_windows_);
  comm_.assign(n * w, 0);
  critical_targets_.assign(n, false);
  const std::size_t pairs = n * (n - 1) / 2;
  pair_total_.assign(pairs, 0);
  pair_max_.assign(pairs, 0);
  pair_critical_.assign(pairs, 0);
  wo_.assign(pairs * w, 0);

  // Per-target merged busy intervals (and critical-only intervals).
  std::vector<std::vector<std::pair<cycle_t, cycle_t>>> busy(n), crit(n);
  auto by_target = t.busy_intervals_by_target();
  for (std::size_t i = 0; i < n; ++i) {
    busy[i] = std::move(by_target[i].all);
    crit[i] = std::move(by_target[i].critical);
    critical_targets_[i] = !crit[i].empty();
  }

  // comm[i][m]: split each busy interval across window boundaries.
  for (int i = 0; i < num_targets_; ++i) {
    for (const auto& [b, e] : busy[static_cast<std::size_t>(i)]) {
      cycle_t cur = b;
      while (cur < e) {
        const auto m = cur / window_size_;
        const cycle_t wend = (m + 1) * window_size_;
        const cycle_t stop = std::min(e, wend);
        comm_[static_cast<std::size_t>(i) * w + static_cast<std::size_t>(m)] +=
            stop - cur;
        cur = stop;
      }
    }
  }

  // Pairwise overlaps: intersect interval lists once per pair, then split
  // the intersection across windows.
  for (int i = 0; i < num_targets_; ++i) {
    for (int j = i + 1; j < num_targets_; ++j) {
      const auto p = static_cast<std::size_t>(pair_index(i, j));
      const auto inter = intersect(busy[static_cast<std::size_t>(i)],
                                   busy[static_cast<std::size_t>(j)]);
      for (const auto& [b, e] : inter) {
        cycle_t cur = b;
        while (cur < e) {
          const auto m = cur / window_size_;
          const cycle_t wend = (m + 1) * window_size_;
          const cycle_t stop = std::min(e, wend);
          wo_[p * w + static_cast<std::size_t>(m)] += stop - cur;
          cur = stop;
        }
      }
      cycle_t total = 0;
      cycle_t peak = 0;
      for (std::size_t m = 0; m < w; ++m) {
        total += wo_[p * w + m];
        peak = std::max(peak, wo_[p * w + m]);
      }
      pair_total_[p] = total;
      pair_max_[p] = peak;
      for (const auto& [b, e] :
           intersect(crit[static_cast<std::size_t>(i)],
                     crit[static_cast<std::size_t>(j)])) {
        pair_critical_[p] += e - b;
      }
    }
  }
}

int window_analysis::pair_index(int i, int j) const {
  STX_REQUIRE(i >= 0 && j >= 0 && i < num_targets_ && j < num_targets_ &&
                  i != j,
              "pair index out of range");
  if (i > j) std::swap(i, j);
  // Index into the upper triangle, row-major.
  return i * num_targets_ - i * (i + 1) / 2 + (j - i - 1);
}

cycle_t window_analysis::comm(int target, int window) const {
  STX_REQUIRE(target >= 0 && target < num_targets_, "target out of range");
  STX_REQUIRE(window >= 0 && window < num_windows_, "window out of range");
  return comm_[static_cast<std::size_t>(target) *
                   static_cast<std::size_t>(num_windows_) +
               static_cast<std::size_t>(window)];
}

cycle_t window_analysis::pair_window_overlap(int i, int j, int window) const {
  STX_REQUIRE(window >= 0 && window < num_windows_, "window out of range");
  if (i == j) return 0;
  return wo_[static_cast<std::size_t>(pair_index(i, j)) *
                 static_cast<std::size_t>(num_windows_) +
             static_cast<std::size_t>(window)];
}

cycle_t window_analysis::total_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_total_[static_cast<std::size_t>(pair_index(i, j))];
}

cycle_t window_analysis::max_window_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_max_[static_cast<std::size_t>(pair_index(i, j))];
}

cycle_t window_analysis::critical_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_critical_[static_cast<std::size_t>(pair_index(i, j))];
}

cycle_t window_analysis::peak_comm(int target) const {
  cycle_t peak = 0;
  for (int m = 0; m < num_windows_; ++m) {
    peak = std::max(peak, comm(target, m));
  }
  return peak;
}

cycle_t window_analysis::total_comm(int target) const {
  cycle_t total = 0;
  for (int m = 0; m < num_windows_; ++m) total += comm(target, m);
  return total;
}

}  // namespace stx::traffic
