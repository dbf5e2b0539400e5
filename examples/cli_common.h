// Helpers shared by the xbargen / xbar-sweep CLI drivers.
#pragma once

#include <cstdint>
#include <string>

#include "obs/export.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/flags.h"
#include "xbar/bb_solver.h"

namespace stx::cli {

/// Parses the solver budget flags (--solver-node-limit, --solver-time-ms)
/// into `limits`. Throws invalid_argument_error on a malformed or
/// out-of-range value (node limit < 1, negative time) — each driver
/// catches, prints its usage and exits 2: a typo'd budget must never
/// silently run with the default. One definition serves all the CLIs so
/// the validation contract cannot drift between them.
inline void apply_solver_budget_flags(const flag_set& flags,
                                      xbar::solver_options* limits) {
  const std::int64_t nodes =
      flags.get_int("solver-node-limit", limits->max_nodes);
  if (nodes < 1) {
    throw invalid_argument_error("--solver-node-limit must be >= 1");
  }
  const std::int64_t time_ms = flags.get_int(
      "solver-time-ms",
      static_cast<std::int64_t>(limits->time_limit_sec * 1000.0));
  if (time_ms < 0) {
    throw invalid_argument_error("--solver-time-ms must be >= 0");
  }
  limits->max_nodes = nodes;
  limits->time_limit_sec = static_cast<double>(time_ms) / 1000.0;
}

/// Parses --cache-max-bytes (the disk_store eviction cap; 0 = unlimited)
/// with the same reject-don't-default contract as the solver knobs.
inline std::uint64_t cache_max_bytes_flag(const flag_set& flags) {
  const std::int64_t cap = flags.get_int("cache-max-bytes", 0);
  if (cap < 0) {
    throw invalid_argument_error("--cache-max-bytes must be >= 0");
  }
  return static_cast<std::uint64_t>(cap);
}

/// The --trace-out / --metrics-out contract shared by all three CLIs:
/// construct after flag parsing (telemetry collection turns on only when
/// at least one output was requested — otherwise every obs entry point
/// stays a no-op), call finish() after the work completes to write the
/// requested files. Write failures throw invalid_argument_error, which
/// the drivers' existing catch blocks turn into exit 1.
class obs_output {
 public:
  explicit obs_output(const flag_set& flags)
      : trace_path_(flags.get_string("trace-out", "")),
        metrics_path_(flags.get_string("metrics-out", "")) {
    if (!trace_path_.empty() || !metrics_path_.empty()) {
      obs::reset();
      obs::enable();
    }
  }

  void finish() const {
    if (!trace_path_.empty()) obs::write_trace_json(trace_path_);
    if (!metrics_path_.empty()) obs::write_metrics_json(metrics_path_);
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace stx::cli
