#include "traffic/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace stx::traffic {

trace::trace(int num_targets, int num_initiators, cycle_t horizon)
    : num_targets_(num_targets),
      num_initiators_(num_initiators),
      horizon_(horizon) {
  STX_REQUIRE(num_targets >= 0 && num_initiators >= 0 && horizon >= 0,
              "trace dimensions must be non-negative");
}

void trace::add(const stream_event& e) {
  STX_REQUIRE(e.target >= 0 && e.target < num_targets_,
              "event target out of range");
  STX_REQUIRE(e.initiator >= 0 && e.initiator < num_initiators_,
              "event initiator out of range");
  STX_REQUIRE(e.begin >= 0 && e.begin < e.end, "event interval malformed");
  horizon_ = std::max(horizon_, e.end);
  events_.push_back(e);
}

void trace::extend_horizon(cycle_t h) { horizon_ = std::max(horizon_, h); }

namespace {

using interval_list = std::vector<std::pair<cycle_t, cycle_t>>;

/// Appends a span of a list sorted by begin, merging it into the last
/// interval when they overlap or touch.
void append_merged(interval_list& merged, cycle_t begin, cycle_t end) {
  if (!merged.empty() && begin <= merged.back().second) {
    merged.back().second = std::max(merged.back().second, end);
  } else {
    merged.emplace_back(begin, end);
  }
}

}  // namespace

std::vector<cycle_t> trace::total_busy_per_target() const {
  std::vector<cycle_t> out(static_cast<std::size_t>(num_targets_), 0);
  const auto by_target = busy_intervals_by_target();
  for (std::size_t t = 0; t < by_target.size(); ++t) {
    for (const auto& [b, e] : by_target[t].all) out[t] += e - b;
  }
  return out;
}

bool trace::target_has_critical(int target) const {
  for (const auto& e : events_) {
    if (e.target == target && e.critical) return true;
  }
  return false;
}

std::vector<std::pair<cycle_t, cycle_t>> trace::busy_intervals(
    int target, bool critical_only) const {
  STX_REQUIRE(target >= 0 && target < num_targets_, "target out of range");
  interval_list spans;
  for (const auto& e : events_) {
    if (e.target != target) continue;
    if (critical_only && !e.critical) continue;
    spans.emplace_back(e.begin, e.end);
  }
  std::sort(spans.begin(), spans.end());
  interval_list merged;
  for (const auto& [b, e] : spans) append_merged(merged, b, e);
  return merged;
}

std::vector<trace::target_busy> trace::busy_intervals_by_target() const {
  // Bucket the events by target (a counting sort keeps it one pass plus
  // a scatter), then sort and merge each target's slice.
  struct span {
    cycle_t begin;
    cycle_t end;
    bool critical;
  };
  const auto n = static_cast<std::size_t>(num_targets_);
  std::vector<std::size_t> offset(n + 1, 0);
  for (const auto& e : events_) {
    ++offset[static_cast<std::size_t>(e.target) + 1];
  }
  for (std::size_t t = 0; t < n; ++t) offset[t + 1] += offset[t];
  std::vector<span> spans(events_.size());
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (const auto& e : events_) {
    spans[fill[static_cast<std::size_t>(e.target)]++] = {e.begin, e.end,
                                                         e.critical};
  }

  std::vector<target_busy> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto first = spans.begin() + static_cast<std::ptrdiff_t>(offset[t]);
    const auto last =
        spans.begin() + static_cast<std::ptrdiff_t>(offset[t + 1]);
    std::sort(first, last, [](const span& a, const span& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
    });
    for (auto it = first; it != last; ++it) {
      append_merged(out[t].all, it->begin, it->end);
      if (it->critical) append_merged(out[t].critical, it->begin, it->end);
    }
  }
  return out;
}

void trace::save(std::ostream& out) const {
  out << "stxtrace v1 targets=" << num_targets_
      << " initiators=" << num_initiators_ << " horizon=" << horizon_
      << " events=" << events_.size() << "\n";
  for (const auto& e : events_) {
    out << e.target << " " << e.initiator << " " << e.begin << " " << e.end
        << " " << (e.critical ? 1 : 0) << "\n";
  }
}

trace trace::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  STX_REQUIRE(magic == "stxtrace" && version == "v1",
              "not an stxtrace v1 stream");
  auto read_kv = [&](const std::string& key) -> std::int64_t {
    std::string tok;
    in >> tok;
    STX_REQUIRE(tok.rfind(key + "=", 0) == 0,
                "expected " + key + "= in trace header");
    try {
      return std::stoll(tok.substr(key.size() + 1));
    } catch (const std::exception&) {
      throw invalid_argument_error("malformed " + key +
                                   " value in trace header: " + tok);
    }
  };
  const auto targets = read_kv("targets");
  const auto initiators = read_kv("initiators");
  const auto horizon = read_kv("horizon");
  const auto count = read_kv("events");
  trace t(static_cast<int>(targets), static_cast<int>(initiators), horizon);
  for (std::int64_t i = 0; i < count; ++i) {
    stream_event e;
    int crit = 0;
    in >> e.target >> e.initiator >> e.begin >> e.end >> crit;
    STX_REQUIRE(static_cast<bool>(in), "truncated trace stream");
    e.critical = crit != 0;
    t.add(e);
  }
  return t;
}

void trace::save_file(const std::string& path) const {
  std::ofstream out(path);
  STX_REQUIRE(out.good(), "cannot open trace file for writing: " + path);
  save(out);
}

trace trace::load_file(const std::string& path) {
  std::ifstream in(path);
  STX_REQUIRE(in.good(), "cannot open trace file: " + path);
  return load(in);
}

}  // namespace stx::traffic
