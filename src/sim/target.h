// Memory / peripheral target model.
#pragma once

#include <algorithm>
#include <functional>

#include "sim/event_queue.h"
#include "sim/flat_queue.h"
#include "sim/packet.h"

namespace stx::sim {

/// Service parameters of a target core (private memory, shared memory,
/// semaphore, interrupt device...).
struct target_params {
  /// Pipeline setup cost charged once per request before the reply can be
  /// issued (memory access time).
  cycle_t service_latency = 4;
};

/// A target serves one request at a time in arrival order: after
/// `service_latency` cycles it emits the reply (read data of the
/// requested size, or a 1-cell write acknowledge) into the
/// target->initiator crossbar.
class memory_target {
 public:
  memory_target(int id, const target_params& params);

  /// Called by the system when the request crossbar delivers a packet
  /// whose last cell landed at cycle `now`.
  void on_request(const packet& p, cycle_t now);

  /// Issues any reply that becomes ready at `now` through `send`.
  void step(cycle_t now, const send_fn& send);

  /// Earliest cycle >= `earliest` a queued reply becomes ready, or
  /// no_wake when no job is pending (ready times are nondecreasing, so
  /// the front job is always the next one due).
  cycle_t next_wake(cycle_t earliest) const {
    if (jobs_.empty()) return no_wake;
    return std::max(jobs_.front().ready_at, earliest);
  }

  int id() const { return id_; }
  bool busy() const { return !jobs_.empty(); }
  std::int64_t served() const { return served_; }

 private:
  struct job {
    packet request;
    cycle_t ready_at = 0;  ///< cycle the reply can be issued
  };

  int id_;
  target_params params_;
  flat_queue<job> jobs_;
  cycle_t busy_until_ = 0;
  std::int64_t served_ = 0;
};

}  // namespace stx::sim
