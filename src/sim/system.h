// MPSoC system simulator: cores + two crossbars + targets.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/core.h"
#include "sim/crossbar.h"
#include "sim/event_queue.h"
#include "sim/target.h"
#include "traffic/trace.h"
#include "util/stats.h"

namespace stx::sim {

/// Everything needed to instantiate a system around a set of programs.
/// Simulation runs on the event-driven calendar-queue kernel
/// (sim::engine): components register next-wake times and idle spans are
/// skipped instead of costing O(components) per cycle. The
/// legacy per-cycle polling loop soaked one release as the differential
/// reference (testkit invariant "kernel-equivalence", bit-identical
/// traces and statistics) and has been retired.
struct system_config {
  /// Initiator->target crossbar (binding size = number of targets).
  crossbar_config request;
  /// Target->initiator crossbar (binding size = number of initiators).
  crossbar_config response;
  target_params target;
  core_params core;
  /// Record delivered packets into functional traffic traces (phase 1 of
  /// the design flow). Costs memory on long runs; benches keep it on for
  /// collection runs and off for validation runs.
  bool record_traces = true;
  /// Retain per-packet latencies for exact percentiles.
  bool keep_latency_samples = true;
  /// Seed for per-core compute jitter.
  std::uint64_t seed = 1;
};

/// Cycle-accurate simulation of the Fig. 2(a) style MPSoC: program-driven
/// cores issue read/write/barrier traffic through the request crossbar;
/// memory targets reply through the response crossbar. Deterministic for
/// a given (programs, config, seed) triple.
class mpsoc_system {
 public:
  /// `programs[i]` is the traffic program of core `i`; `num_targets` is
  /// the number of receiving endpoints on the request side.
  /// `loop_starts[i]` (optional, default all 0) marks where core i's loop
  /// body begins; earlier ops run once as a prologue.
  mpsoc_system(std::vector<std::vector<core_op>> programs, int num_targets,
               const system_config& cfg,
               std::vector<std::size_t> loop_starts = {});

  /// Runs the simulation up to absolute cycle `horizon` (callable
  /// repeatedly with growing horizons).
  void run(cycle_t horizon);

  cycle_t now() const { return now_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  int num_targets() const { return static_cast<int>(targets_.size()); }
  /// Cores + targets + buses of both crossbars: the retired polling
  /// loop's per-cycle step count, i.e. the cost model the event kernel
  /// is measured against (sim perf guard, ablation_sim_throughput).
  int num_components() const;

  const crossbar& request_crossbar() const { return request_xbar_; }
  const crossbar& response_crossbar() const { return response_xbar_; }
  const core& core_at(int i) const;
  const memory_target& target_at(int t) const;

  /// Functional traffic traces recorded during the run (requires
  /// cfg.record_traces). The request trace keys events by target id; the
  /// response trace keys them by initiator id — each feeds the synthesis
  /// of its own crossbar direction.
  const traffic::trace& request_trace() const { return request_trace_; }
  const traffic::trace& response_trace() const { return response_trace_; }

  /// Packet latency over both crossbars combined (the paper's Table 1
  /// metric: latency incurred by packets on the interconnect).
  running_stats packet_latency() const;
  /// Same restricted to critical packets.
  running_stats critical_packet_latency() const;

  /// Completed read/write transactions across all cores.
  std::int64_t total_transactions() const;
  /// Completed program iterations across all cores (throughput signal).
  std::int64_t total_iterations() const;

  /// Accumulated event-kernel counters.
  const engine_stats& event_stats() const { return event_stats_; }

 private:
  friend class engine;

  void run_event(cycle_t horizon);

  system_config cfg_;
  std::vector<core> cores_;
  std::vector<memory_target> targets_;
  crossbar request_xbar_;
  crossbar response_xbar_;
  barrier_board barriers_;
  traffic::trace request_trace_;
  traffic::trace response_trace_;
  cycle_t now_ = 0;
  engine_stats event_stats_;
};

}  // namespace stx::sim
