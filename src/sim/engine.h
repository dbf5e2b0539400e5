// Event-driven simulation kernel.
//
// A per-cycle polling loop would visit every core, bus and target every
// cycle, even when nothing can advance — O(components) per cycle no
// matter how idle the system is (the seed repo's kernel worked that way;
// it soaked one release as the differential reference and was retired).
// The engine instead keeps a calendar queue of wake
// events: components register the next cycle at which their step function
// could change state (compute completions, transfer completions, reply
// ready times, barrier poll deadlines), external interactions (a request
// enqueued, a reply delivered, a barrier arrival) push wakes for the
// affected component, and whole idle spans are skipped.
//
// Each component carries at most ONE live wake (its timer): a wake later
// than the pending one is superseded instead of queued. Whatever state
// change prompted it is already in the component, so the step at the
// pending cycle sees it and the post-step re-arm (next_wake over that
// state) recomputes any later wake still needed. Queue keys that no
// longer match their component's timer are stale and dropped at pop.
//
// Determinism contract: events are processed in (cycle, phase,
// component) order, where the phases replicate the retired polling
// loop's per-cycle sweep (cores -> request buses -> targets -> response
// buses) and the component id is the same iteration order that loop
// used. Because every component's step/wake function is a no-op whenever
// nothing can advance, the engine may *add* spurious wakes freely but
// must never miss a state-changing one — the discipline under which the
// retired kernel and this one produced bit-identical traces, latency
// statistics and RNG streams for a full release (testkit invariant
// "kernel-equivalence", now retired with the polling loop; tests/sim
// still enforce segmented-run determinism).
#pragma once

#include <array>

#include "sim/event_queue.h"
#include "sim/system.h"

namespace stx::sim {

/// Drives one mpsoc_system through its wake handlers. Stateless across
/// runs: the queue is reseeded from component state on construction, so
/// mpsoc_system::run can instantiate a fresh engine per segment and
/// resumed runs stay bit-identical to a single longer run.
class engine {
 public:
  explicit engine(mpsoc_system& sys);

  /// Processes all events strictly before `horizon` (callable once).
  void run(cycle_t horizon);

  const engine_stats& stats() const { return stats_; }

 private:
  void seed();
  /// Queues a wake for (phase, comp). `cycle` may be no_wake (ignored) or
  /// lie in the past / at the event currently being processed — it is
  /// clamped forward so the wake lands strictly after the current event,
  /// exactly when the polling loop would next visit the component. A
  /// pending wake at or before the clamped cycle supersedes it.
  void schedule(int phase, int comp, cycle_t cycle);
  /// Barrier arrival: re-wake every core (cores past their polling-loop
  /// slot this cycle see the change next cycle, the rest this cycle).
  void wake_all_cores();
  /// Flat component index: components numbered in (phase, component)
  /// order.
  int gid(int phase, int comp) const {
    return phase_base_[static_cast<std::size_t>(phase)] + comp;
  }

  mpsoc_system& sys_;
  event_queue queue_;
  /// Per gid: the cycle of the component's one live wake, or
  /// timer_none. A popped key whose cycle differs is stale.
  std::vector<cycle_t> timer_;
  std::array<int, 4> phase_base_{};  ///< gid of each phase's component 0
  event_key current_{};
  cycle_t start_ = 0;
  cycle_t horizon_ = 0;
  bool processing_ = false;
  int num_cores_ = 0;
  int num_request_buses_ = 0;
  int num_targets_ = 0;
  int num_response_buses_ = 0;
  engine_stats stats_;
};

}  // namespace stx::sim
