#include "sim/bus.h"

#include <algorithm>

#include "sim/event_queue.h"
#include "util/error.h"

namespace stx::sim {

bus::bus(int id, int num_ports, arbitration policy, cycle_t overhead)
    : id_(id),
      num_ports_(num_ports),
      overhead_(overhead),
      arbiter_(make_arbiter(policy, num_ports)),
      queues_(static_cast<std::size_t>(num_ports)),
      requesting_(num_ports) {
  STX_REQUIRE(overhead >= 0, "bus overhead must be non-negative");
}

void bus::enqueue(int port, const packet& p) {
  STX_REQUIRE(port >= 0 && port < num_ports_, "bus port out of range");
  STX_REQUIRE(p.cells > 0, "packet must occupy at least one cell");
  auto& q = queues_[static_cast<std::size_t>(port)];
  if (q.empty()) requesting_.set(port);
  q.push_back(p);
  max_depth_ = std::max(max_depth_, static_cast<int>(q.size()));
}

bool bus::start_transfer(cycle_t now) {
  if (!requesting_.any()) return false;
  const int granted = arbiter_->pick(requesting_, now);
  STX_ENSURE(granted >= 0, "arbiter returned no grant despite requests");
  auto& q = queues_[static_cast<std::size_t>(granted)];
  current_ = q.front();
  q.pop_front();
  if (q.empty()) requesting_.reset(granted);
  transferring_ = true;
  // The grant cycle itself is the first overhead cycle. The recorded
  // receive interval spans the packet's whole bus occupancy (overhead +
  // cells): the window bandwidth constraint (Eq. 4) budgets bus capacity,
  // and the adapter/arbitration cycles consume capacity just like cells.
  recv_begin_ = now;
  transfer_end_ = now + overhead_ + current_.cells;
  return true;
}

delivery bus::complete() {
  busy_cycles_ += transfer_end_ - busy_from_;
  transferring_ = false;
  ++delivered_;
  return {current_, recv_begin_, transfer_end_};
}

void bus::step(cycle_t now, const deliver_fn& deliver) {
  if (transferring_) {
    ++busy_cycles_;
    if (now + 1 >= transfer_end_) {
      // Last busy cycle: the final cell lands now.
      transferring_ = false;
      ++delivered_;
      deliver(current_, recv_begin_, transfer_end_);
    }
    return;
  }

  // Idle: arbitrate among ports with a pending packet.
  if (!start_transfer(now)) return;
  ++busy_cycles_;
  if (now + 1 >= transfer_end_) {
    // Single-cell packet with zero overhead completes immediately.
    transferring_ = false;
    ++delivered_;
    deliver(current_, recv_begin_, transfer_end_);
  }
}

std::optional<delivery> bus::wake(cycle_t now) {
  if (transferring_) {
    // Completion wake — or a spurious one (backlog wake while busy),
    // which must change nothing. The polling loop only arbitrates the
    // cycle AFTER a completion, so no new transfer starts here; the
    // engine re-arms us for the next cycle.
    if (now + 1 >= transfer_end_) return complete();
    return std::nullopt;
  }
  if (!start_transfer(now)) return std::nullopt;
  busy_from_ = now;
  if (now + 1 >= transfer_end_) return complete();
  return std::nullopt;
}

void bus::sync_busy(cycle_t now) {
  if (transferring_ && now > busy_from_) {
    busy_cycles_ += now - busy_from_;
    busy_from_ = now;
  }
}

}  // namespace stx::sim
