#include "workloads/big_fabric.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/error.h"
#include "util/random.h"

namespace stx::workloads {

void big_fabric_params::validate() const {
  STX_REQUIRE(num_initiators >= 2 && num_targets >= 2,
              "big_fabric needs at least 2 initiators and 2 targets");
  STX_REQUIRE(hot_targets >= 0 && hot_targets <= num_targets,
              "hot_targets out of [0, num_targets]");
  STX_REQUIRE(hot_fraction >= 0.0 && hot_fraction <= 1.0,
              "hot_fraction out of [0,1]");
  STX_REQUIRE(burst_cycles > 0 && packet_cells > 0,
              "burst/packet sizes must be positive");
  STX_REQUIRE(gap_cycles >= 0, "gap_cycles must be non-negative");
  STX_REQUIRE(phase_spread >= 0.0 && phase_spread <= 1.0,
              "phase_spread out of [0,1]");
  STX_REQUIRE(read_fraction >= 0.0 && read_fraction <= 1.0,
              "read_fraction out of [0,1]");
  STX_REQUIRE(duty_spread >= 0.0 && duty_spread < 1.0,
              "duty_spread out of [0,1)");
}

app_spec make_big_fabric(const big_fabric_params& params) {
  params.validate();

  app_spec app;
  app.name = "BigFabric" + std::to_string(params.num_initiators) + "x" +
             std::to_string(params.num_targets);
  app.num_initiators = params.num_initiators;
  app.num_targets = params.num_targets;
  for (int t = 0; t < params.num_targets; ++t) {
    const bool hot = t < params.hot_targets;
    app.target_names.push_back((hot ? "Shared" : "Memory") +
                               std::to_string(t));
  }

  // Seed-shuffled home permutation: initiator i's private stream goes to
  // home[i % num_targets], decoupling bus-adjacency from index-adjacency
  // so the conflict graph's structure varies with the geometry seed.
  std::vector<int> home(static_cast<std::size_t>(params.num_targets));
  std::iota(home.begin(), home.end(), 0);
  rng geometry(params.seed);
  geometry.shuffle(home);

  const int read_every =
      params.read_fraction <= 0.0
          ? 0
          : std::max(1, static_cast<int>(1.0 / params.read_fraction));
  const int hot_every =
      params.hot_fraction <= 0.0 || params.hot_targets == 0
          ? 0
          : std::max(1, static_cast<int>(1.0 / params.hot_fraction));

  for (int i = 0; i < params.num_initiators; ++i) {
    // Linear duty gradient: heavy initiators (weight > 1) burst longer
    // and rest shorter, light ones the opposite. The asymmetry is what
    // keeps the binding model from collapsing into one symmetry orbit.
    const double frac =
        params.num_initiators > 1
            ? static_cast<double>(i) /
                  static_cast<double>(params.num_initiators - 1)
            : 0.5;
    const double weight = 1.0 + params.duty_spread * (2.0 * frac - 1.0);
    const auto burst = std::max<sim::cycle_t>(
        static_cast<sim::cycle_t>(params.packet_cells),
        static_cast<sim::cycle_t>(static_cast<double>(params.burst_cycles) *
                                  weight));
    const auto gap = static_cast<sim::cycle_t>(
        static_cast<double>(params.gap_cycles) / weight);
    const int packets_per_burst =
        std::max<int>(1, static_cast<int>(burst / params.packet_cells));

    const int home_target =
        home[static_cast<std::size_t>(i % params.num_targets)];
    app.private_mem.push_back(home_target);

    std::vector<sim::core_op> prog;
    const auto offset = static_cast<sim::cycle_t>(
        static_cast<double>(i) * params.phase_spread *
        static_cast<double>(params.burst_cycles));
    std::size_t loop_start = 0;
    if (offset > 0) {
      sim::core_op warm;
      warm.op = sim::core_op::kind::compute;
      warm.cycles = offset;
      prog.push_back(warm);
      loop_start = 1;
    }

    for (int p = 0; p < packets_per_burst; ++p) {
      sim::core_op op;
      op.cells = params.packet_cells;
      int dest = home_target;
      if (hot_every > 0 && p % hot_every == hot_every - 1) {
        dest = (i + p / hot_every) % params.hot_targets;
      }
      op.target = dest;
      const bool is_read =
          read_every > 0 && (p % read_every) == read_every - 1;
      op.op = is_read ? sim::core_op::kind::read : sim::core_op::kind::write;
      prog.push_back(op);
    }

    sim::core_op rest;
    rest.op = sim::core_op::kind::compute;
    rest.cycles = gap;
    prog.push_back(rest);

    app.programs.push_back(std::move(prog));
    app.loop_starts.push_back(loop_start);
  }
  app.validate();
  return app;
}

app_spec make_big_fabric_32() { return make_big_fabric({}); }

app_spec make_big_fabric_64() {
  big_fabric_params p;
  p.num_initiators = 64;
  p.num_targets = 64;
  p.hot_targets = 6;
  p.seed = 2;
  return make_big_fabric(p);
}

}  // namespace stx::workloads
