// Single bus: the serialising resource of an STbus crossbar.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/arbiter.h"
#include "sim/event_queue.h"
#include "sim/flat_queue.h"
#include "sim/packet.h"

namespace stx::sim {

/// Called when a packet's last cell reaches its destination.
/// [recv_begin, recv_end) is the span of cycles during which the packet
/// occupied the bus toward its destination — overhead plus data cells —
/// which is what the traffic trace records (Eq. 4 budgets bus capacity).
using deliver_fn =
    std::function<void(const packet&, cycle_t recv_begin, cycle_t recv_end)>;

/// A packet whose last cell reached its destination, with the receive
/// span deliver_fn reports.
struct delivery {
  packet p;
  cycle_t recv_begin = 0;
  cycle_t recv_end = 0;
};

/// One bus of a crossbar (Fig. 1): every initiator has an input port; the
/// arbiter grants one packet at a time; a granted packet occupies the bus
/// for `overhead + cells` cycles and delivers one cell per cycle after the
/// overhead (arbitration + frequency/size adapter cost).
class bus {
 public:
  /// `overhead` models the fixed per-packet cost of the arbiter and the
  /// frequency/data-width adapters between heterogeneous cores (Sec. 3.1).
  bus(int id, int num_ports, arbitration policy, cycle_t overhead);

  /// Queues a packet at input `port` (its `issue` field should carry the
  /// enqueue cycle for latency accounting).
  void enqueue(int port, const packet& p);

  /// Advances one cycle. Completes an in-flight transfer whose last cell
  /// lands this cycle (invoking `deliver`), then, if idle, arbitrates and
  /// starts the next transfer. Per-cycle entry point (the retired polling
  /// kernel's; kept for the unit tests that drive a bus cycle by cycle):
  /// the caller must invoke it every cycle (busy cycles counted eagerly).
  void step(cycle_t now, const deliver_fn& deliver);

  /// Event-kernel entry point: same decision procedure as step(), but
  /// safe to call only at the cycles next_wake() names (plus any spurious
  /// wake, which is a no-op). Busy cycles are accounted lazily — span-at-
  /// completion rather than one per call — so skipped cycles still count;
  /// sync_busy() settles the in-flight span at a run boundary. One bus
  /// instance must stick to one kernel (step xor wake) for its lifetime.
  /// Returns the packet this call delivered, if any (at most one).
  std::optional<delivery> wake(cycle_t now);

  /// Earliest cycle >= `earliest` at which wake() does real work: the
  /// in-flight transfer's completion cycle, `earliest` itself when idle
  /// with a backlog, or no_wake when fully drained.
  cycle_t next_wake(cycle_t earliest) const {
    if (transferring_) return std::max(transfer_end_ - 1, earliest);
    if (has_backlog()) return earliest;
    return no_wake;
  }

  /// Accounts the busy span of an in-flight transfer up to `now`
  /// (exclusive) so busy_cycles() matches per-cycle stepping at a run
  /// horizon that cuts a transfer in half.
  void sync_busy(cycle_t now);

  int id() const { return id_; }
  int num_ports() const { return num_ports_; }
  bool idle() const { return !transferring_; }
  bool has_backlog() const { return requesting_.any(); }

  /// Cycles this bus spent transferring (including overhead cycles).
  cycle_t busy_cycles() const { return busy_cycles_; }
  /// Packets fully delivered.
  std::int64_t delivered_packets() const { return delivered_; }
  /// Maximum queue depth ever observed across ports (congestion signal).
  int max_queue_depth() const { return max_depth_; }

 private:
  int id_;
  int num_ports_;
  cycle_t overhead_;
  std::unique_ptr<arbiter> arbiter_;
  std::vector<flat_queue<packet>> queues_;

  /// Arbitrates among backlogged ports and loads the winner into
  /// current_/recv_begin_/transfer_end_; false when nothing requests.
  bool start_transfer(cycle_t now);
  /// Finishes the in-flight transfer: lazy busy accounting + delivery.
  delivery complete();

  bool transferring_ = false;
  packet current_{};
  cycle_t transfer_end_ = 0;   ///< first cycle the bus is free again
  cycle_t recv_begin_ = 0;     ///< first cycle the destination receives
  cycle_t busy_from_ = 0;      ///< start of the unaccounted busy span

  cycle_t busy_cycles_ = 0;
  std::int64_t delivered_ = 0;
  int max_depth_ = 0;
  port_mask requesting_;  ///< ports whose queue is non-empty
};

}  // namespace stx::sim
