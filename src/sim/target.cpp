#include "sim/target.h"

#include <algorithm>

#include "sim/event_queue.h"
#include "util/error.h"

namespace stx::sim {

memory_target::memory_target(int id, const target_params& params)
    : id_(id), params_(params) {
  STX_REQUIRE(params.service_latency >= 0, "negative service latency");
}

void memory_target::on_request(const packet& p, cycle_t now) {
  STX_REQUIRE(p.dest == id_, "request routed to wrong target");
  // The memory pipeline serialises requests: service begins when the
  // previous one finishes.
  const cycle_t start = std::max(now, busy_until_);
  job j;
  j.request = p;
  j.ready_at = start + params_.service_latency;
  busy_until_ = j.ready_at;
  jobs_.push_back(j);
}

void memory_target::step(cycle_t now, const send_fn& send) {
  while (!jobs_.empty() && jobs_.front().ready_at <= now) {
    const auto& req = jobs_.front().request;
    packet reply;
    reply.source = id_;           // on the response crossbar we send
    reply.dest = req.source;      // back to the requesting initiator
    reply.txn = req.txn;
    reply.critical = req.critical;
    if (req.kind == packet_kind::request_read) {
      reply.kind = packet_kind::response_read;
      reply.cells = req.response_cells;
    } else {
      reply.kind = packet_kind::response_ack;
      reply.cells = 1;
    }
    send(reply);
    jobs_.pop_front();
    ++served_;
  }
}

}  // namespace stx::sim
