#include "sim/engine.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace stx::sim {

namespace {

/// `timer_` value of a component with no pending wake.
constexpr cycle_t timer_none = std::numeric_limits<cycle_t>::max();

}  // namespace

engine::engine(mpsoc_system& sys)
    : sys_(sys),
      queue_(sys.now()),
      start_(sys.now()),
      num_cores_(static_cast<int>(sys.cores_.size())),
      num_request_buses_(sys.request_xbar_.num_buses()),
      num_targets_(static_cast<int>(sys.targets_.size())),
      num_response_buses_(sys.response_xbar_.num_buses()) {
  phase_base_ = {0, num_cores_, num_cores_ + num_request_buses_,
                 num_cores_ + num_request_buses_ + num_targets_};
  timer_.assign(static_cast<std::size_t>(phase_base_[phase_response_bus] +
                                         num_response_buses_),
                timer_none);
}

void engine::schedule(int phase, int comp, cycle_t cycle) {
  if (cycle == no_wake) return;
  event_key k{std::max(cycle, start_), phase, comp};
  if (processing_ && k <= current_) k.cycle = current_.cycle + 1;
  // Events at or past the horizon are dropped: seed() rebuilds every
  // still-needed wake from component state when the next run() starts.
  if (k.cycle >= horizon_) return;
  auto& timer = timer_[static_cast<std::size_t>(gid(phase, comp))];
  if (timer <= k.cycle) return;
  timer = k.cycle;
  queue_.push(k);
}

void engine::seed() {
  // Wake every component once at the start cycle — one polling-equivalent
  // sweep. Each processed wake re-arms the component from its own state,
  // so this is the only place wakes are derived without observing an
  // event, which keeps segmented runs identical to one long run.
  for (int i = 0; i < num_cores_; ++i) schedule(phase_core, i, start_);
  for (int k = 0; k < num_request_buses_; ++k) {
    schedule(phase_request_bus, k, start_);
  }
  for (int t = 0; t < num_targets_; ++t) schedule(phase_target, t, start_);
  for (int k = 0; k < num_response_buses_; ++k) {
    schedule(phase_response_bus, k, start_);
  }
}

void engine::wake_all_cores() {
  for (int i = 0; i < num_cores_; ++i) {
    schedule(phase_core, i, current_.cycle);
  }
}

void engine::run(cycle_t horizon) {
  STX_REQUIRE(!processing_ && horizon_ == 0, "engine::run is single-use");
  horizon_ = horizon;
  if (horizon <= start_) return;
  seed();

  const send_fn send_request = [&](const packet& p) {
    sys_.request_xbar_.enqueue(p);
    schedule(phase_request_bus, sys_.request_xbar_.bus_for(p.dest),
             current_.cycle);
  };

  const send_fn send_response = [&](const packet& reply) {
    packet stamped = reply;
    stamped.issue = current_.cycle;
    sys_.response_xbar_.enqueue(stamped);
    schedule(phase_response_bus, sys_.response_xbar_.bus_for(stamped.dest),
             current_.cycle);
  };

  const auto deliver_request = [&](const delivery& d) {
    const packet& p = d.p;
    if (sys_.cfg_.record_traces) {
      sys_.request_trace_.add(
          {p.dest, p.source, d.recv_begin, d.recv_end, p.critical});
    }
    auto& target = sys_.targets_[static_cast<std::size_t>(p.dest)];
    target.on_request(p, d.recv_end);
    schedule(phase_target, p.dest, target.next_wake(current_.cycle));
  };

  const auto deliver_response = [&](const delivery& d) {
    const packet& p = d.p;
    if (sys_.cfg_.record_traces) {
      sys_.response_trace_.add(
          {p.dest, p.source, d.recv_begin, d.recv_end, p.critical});
    }
    auto& core = sys_.cores_[static_cast<std::size_t>(p.dest)];
    core.on_response(p, d.recv_end);
    schedule(phase_core, p.dest, core.next_wake(current_.cycle + 1));
  };

  processing_ = true;
  cycle_t last_cycle = start_ - 1;
  while (!queue_.empty()) {
    current_ = queue_.pop();
    auto& timer = timer_[static_cast<std::size_t>(
        gid(current_.phase, current_.component))];
    if (timer != current_.cycle) {
      // Superseded by an earlier wake that already stepped (and re-armed)
      // this component, or a duplicate of one just processed.
      ++stats_.events_skipped;
      continue;
    }
    timer = timer_none;  // consumed; the step re-arms
    if (current_.cycle != last_cycle) {
      last_cycle = current_.cycle;
      ++stats_.cycles_visited;
    }
    ++stats_.events_processed;

    const int comp = current_.component;
    const cycle_t now = current_.cycle;
    switch (current_.phase) {
      case phase_core: {
        auto& c = sys_.cores_[static_cast<std::size_t>(comp)];
        const auto board_version = sys_.barriers_.version();
        c.step(now, send_request, sys_.barriers_);
        if (sys_.barriers_.version() != board_version) wake_all_cores();
        schedule(phase_core, comp, c.next_wake(now + 1));
        break;
      }
      case phase_request_bus: {
        if (const auto d = sys_.request_xbar_.wake_bus(comp, now)) {
          deliver_request(*d);
        }
        schedule(phase_request_bus, comp,
                 sys_.request_xbar_.bus_next_wake(comp, now + 1));
        break;
      }
      case phase_target: {
        auto& t = sys_.targets_[static_cast<std::size_t>(comp)];
        t.step(now, send_response);
        schedule(phase_target, comp, t.next_wake(now + 1));
        break;
      }
      case phase_response_bus: {
        if (const auto d = sys_.response_xbar_.wake_bus(comp, now)) {
          deliver_response(*d);
        }
        schedule(phase_response_bus, comp,
                 sys_.response_xbar_.bus_next_wake(comp, now + 1));
        break;
      }
      default:
        throw internal_error("unknown engine phase");
    }
  }
  processing_ = false;

  // Settle the lazy busy accounting of in-flight transfers so
  // utilisation queries at this horizon match the polling kernel.
  sys_.request_xbar_.sync_busy(horizon);
  sys_.response_xbar_.sync_busy(horizon);
}

}  // namespace stx::sim
