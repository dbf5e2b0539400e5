// Crossbar: a set of buses plus the binding of receiving endpoints.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/bus.h"
#include "util/error.h"
#include "util/stats.h"

namespace stx::sim {

/// Static description of one crossbar direction (initiator->target or
/// target->initiator). `binding[e]` is the bus that receiving endpoint
/// `e` is connected to; every sending endpoint reaches every bus (Fig. 1).
///
/// The three STbus instantiation types map to:
///   * shared bus:    num_buses == 1
///   * full crossbar: num_buses == #endpoints, binding[e] == e
///   * partial:       anything in between (what the synthesis produces)
struct crossbar_config {
  int num_buses = 1;
  std::vector<int> binding;
  arbitration policy = arbitration::round_robin;
  /// Fixed per-packet cost (arbitration + frequency/size adapters).
  cycle_t transfer_overhead = 2;

  /// Single shared bus over `n` receiving endpoints.
  static crossbar_config shared(int n);
  /// One bus per receiving endpoint.
  static crossbar_config full(int n);
  /// Partial crossbar with an explicit binding.
  static crossbar_config partial(int num_buses, std::vector<int> binding);

  /// Validates shape: binding size n, bus ids in range, every bus id
  /// optionally used. Throws on malformed configs.
  void validate(int n_endpoints) const;

  /// Human-readable summary, e.g. "partial(3 buses: [0,0,1,2,...])".
  std::string to_string() const;
};

/// Runtime crossbar: owns the buses, routes packets by destination
/// binding, and aggregates latency/utilisation metrics.
class crossbar {
 public:
  /// `num_send_ports`: how many sending endpoints (each bus gets that
  /// many input ports). `keep_samples`: retain per-packet latencies for
  /// exact percentiles (benches want this; long soaks may not).
  crossbar(const crossbar_config& cfg, int num_send_ports,
           int num_recv_endpoints, bool keep_samples = true);

  /// Queues `p` on the bus owning `p.dest` at input port `p.source`.
  void enqueue(const packet& p);

  /// Steps every bus one cycle; `deliver` fires for each completed packet
  /// after latency accounting. Per-cycle entry point (kept for the unit
  /// tests; the system runs on the event kernel).
  void step(cycle_t now, const deliver_fn& deliver);

  /// Event-kernel entry point: wakes one bus (same latency accounting as
  /// step) and returns the packet it delivered, if any. See bus::wake
  /// for the call contract.
  std::optional<delivery> wake_bus(int k, cycle_t now);

  /// Next wake cycle of bus `k` (no_wake when drained).
  cycle_t bus_next_wake(int k, cycle_t earliest) const {
    return bus_at(k).next_wake(earliest);
  }

  /// The bus that receiving endpoint `dest` is bound to.
  int bus_for(int dest) const {
    STX_REQUIRE(dest >= 0 && dest < static_cast<int>(cfg_.binding.size()),
                "endpoint out of range");
    return cfg_.binding[static_cast<std::size_t>(dest)];
  }

  /// Settles lazy busy accounting of every bus up to `now` (event kernel
  /// run boundary).
  void sync_busy(cycle_t now);

  const crossbar_config& config() const { return cfg_; }
  int num_buses() const { return static_cast<int>(buses_.size()); }
  const bus& bus_at(int k) const {
    STX_REQUIRE(k >= 0 && k < num_buses(), "bus index out of range");
    return buses_[static_cast<std::size_t>(k)];
  }

  /// Per-packet latency (enqueue to last cell delivered), all packets.
  const running_stats& latency() const { return latency_; }
  /// Latency restricted to packets flagged critical.
  const running_stats& critical_latency() const { return critical_latency_; }

  /// Utilisation of bus `k` over `elapsed` cycles, in [0, 1].
  double utilization(int k, cycle_t elapsed) const;

  /// True when no bus holds queued or in-flight packets.
  bool drained() const;

 private:
  crossbar_config cfg_;
  std::vector<bus> buses_;
  running_stats latency_;
  running_stats critical_latency_;
};

}  // namespace stx::sim
