// Functional traffic traces: what the crossbar synthesis consumes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace stx::traffic {

/// Simulation time in clock cycles.
using cycle_t = std::int64_t;

/// One contiguous span of cycles during which a target was receiving data
/// from some initiator (recorded by the simulator during the full-crossbar
/// collection run, Fig. 3 phase 1).
struct stream_event {
  int target = 0;        ///< receiving endpoint id
  int initiator = 0;     ///< sending endpoint id
  cycle_t begin = 0;     ///< first busy cycle (inclusive)
  cycle_t end = 0;       ///< one past the last busy cycle (exclusive)
  bool critical = false; ///< real-time stream requiring guarantees

  bool operator==(const stream_event&) const = default;
};

/// A complete traffic trace for one crossbar direction.
///
/// "Targets" here are the receiving endpoints of whichever direction is
/// being designed: memory targets for the initiator->target crossbar,
/// processor initiators for the target->initiator crossbar (the paper
/// designs the two independently with the same machinery).
class trace {
 public:
  trace() = default;
  trace(int num_targets, int num_initiators, cycle_t horizon);

  /// Appends an event; `begin < end`, ids in range, event must not extend
  /// past the horizon (the horizon grows automatically if it does).
  void add(const stream_event& e);

  /// Grows the horizon to at least `h` (trailing silence counts as part
  /// of the observation period for window analysis).
  void extend_horizon(cycle_t h);

  int num_targets() const { return num_targets_; }
  int num_initiators() const { return num_initiators_; }
  cycle_t horizon() const { return horizon_; }
  const std::vector<stream_event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Total busy cycles per target over the whole trace.
  std::vector<cycle_t> total_busy_per_target() const;

  /// True when any event to `target` is marked critical.
  bool target_has_critical(int target) const;

  /// Sorted, disjoint busy intervals of one target (overlapping or
  /// adjacent events to the same target are merged).
  std::vector<std::pair<cycle_t, cycle_t>> busy_intervals(
      int target, bool critical_only = false) const;

  /// busy_intervals() of one target, with and without critical_only.
  struct target_busy {
    std::vector<std::pair<cycle_t, cycle_t>> all;
    std::vector<std::pair<cycle_t, cycle_t>> critical;
  };
  /// busy_intervals() for every target from one pass over the events:
  /// element i holds busy_intervals(i) and busy_intervals(i, true).
  std::vector<target_busy> busy_intervals_by_target() const;

  /// Exact equality: dimensions, horizon and the full event sequence —
  /// what "bit-identical traces" means wherever runs are compared
  /// differentially (segmented-run determinism tests; historically the
  /// polling/event kernel-equivalence invariant).
  bool operator==(const trace&) const = default;

  /// Writes / reads the portable single-file text format (`stxtrace v1`).
  void save(std::ostream& out) const;
  static trace load(std::istream& in);
  void save_file(const std::string& path) const;
  static trace load_file(const std::string& path);

 private:
  int num_targets_ = 0;
  int num_initiators_ = 0;
  cycle_t horizon_ = 0;
  std::vector<stream_event> events_;
};

}  // namespace stx::traffic
