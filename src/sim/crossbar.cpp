#include "sim/crossbar.h"

#include <numeric>
#include <sstream>

#include "util/error.h"

namespace stx::sim {

crossbar_config crossbar_config::shared(int n) {
  crossbar_config cfg;
  cfg.num_buses = 1;
  cfg.binding.assign(static_cast<std::size_t>(n), 0);
  return cfg;
}

crossbar_config crossbar_config::full(int n) {
  crossbar_config cfg;
  cfg.num_buses = n;
  cfg.binding.resize(static_cast<std::size_t>(n));
  std::iota(cfg.binding.begin(), cfg.binding.end(), 0);
  return cfg;
}

crossbar_config crossbar_config::partial(int num_buses,
                                         std::vector<int> binding) {
  crossbar_config cfg;
  cfg.num_buses = num_buses;
  cfg.binding = std::move(binding);
  return cfg;
}

void crossbar_config::validate(int n_endpoints) const {
  STX_REQUIRE(num_buses >= 1, "crossbar needs at least one bus");
  STX_REQUIRE(static_cast<int>(binding.size()) == n_endpoints,
              "binding size must equal endpoint count");
  for (int b : binding) {
    STX_REQUIRE(b >= 0 && b < num_buses, "binding references unknown bus");
  }
  STX_REQUIRE(transfer_overhead >= 0, "negative transfer overhead");
}

std::string crossbar_config::to_string() const {
  std::ostringstream out;
  const auto n = static_cast<int>(binding.size());
  if (num_buses == 1) {
    out << "shared(" << n << " endpoints)";
  } else if (num_buses == n) {
    out << "full(" << n << " buses)";
  } else {
    out << "partial(" << num_buses << " buses: [";
    for (std::size_t i = 0; i < binding.size(); ++i) {
      if (i > 0) out << ",";
      out << binding[i];
    }
    out << "])";
  }
  return out.str();
}

crossbar::crossbar(const crossbar_config& cfg, int num_send_ports,
                   int num_recv_endpoints, bool keep_samples)
    : cfg_(cfg),
      latency_(keep_samples),
      critical_latency_(keep_samples) {
  cfg_.validate(num_recv_endpoints);
  STX_REQUIRE(num_send_ports > 0, "crossbar needs sending endpoints");
  buses_.reserve(static_cast<std::size_t>(cfg_.num_buses));
  for (int k = 0; k < cfg_.num_buses; ++k) {
    buses_.emplace_back(k, num_send_ports, cfg_.policy,
                        cfg_.transfer_overhead);
  }
}

void crossbar::enqueue(const packet& p) {
  STX_REQUIRE(p.dest >= 0 &&
                  p.dest < static_cast<int>(cfg_.binding.size()),
              "packet destination out of range");
  const int k = cfg_.binding[static_cast<std::size_t>(p.dest)];
  buses_[static_cast<std::size_t>(k)].enqueue(p.source, p);
}

void crossbar::step(cycle_t now, const deliver_fn& deliver) {
  for (auto& b : buses_) {
    b.step(now, [&](const packet& p, cycle_t rb, cycle_t re) {
      const auto lat = static_cast<double>(re - p.issue);
      latency_.add(lat);
      if (p.critical) critical_latency_.add(lat);
      deliver(p, rb, re);
    });
  }
}

std::optional<delivery> crossbar::wake_bus(int k, cycle_t now) {
  STX_REQUIRE(k >= 0 && k < num_buses(), "bus index out of range");
  auto d = buses_[static_cast<std::size_t>(k)].wake(now);
  if (d) {
    const auto lat = static_cast<double>(d->recv_end - d->p.issue);
    latency_.add(lat);
    if (d->p.critical) critical_latency_.add(lat);
  }
  return d;
}

void crossbar::sync_busy(cycle_t now) {
  for (auto& b : buses_) b.sync_busy(now);
}

double crossbar::utilization(int k, cycle_t elapsed) const {
  STX_REQUIRE(elapsed > 0, "elapsed must be positive");
  return static_cast<double>(bus_at(k).busy_cycles()) /
         static_cast<double>(elapsed);
}

bool crossbar::drained() const {
  for (const auto& b : buses_) {
    if (!b.idle() || b.has_backlog()) return false;
  }
  return true;
}

}  // namespace stx::sim
