#include "xbar/synthesis.h"

#include <algorithm>
#include <sstream>

#include "obs/obs.h"
#include "traffic/variable_windows.h"
#include "traffic/windows.h"
#include "util/error.h"

namespace stx::xbar {

sim::crossbar_config crossbar_design::to_config(
    sim::arbitration policy, cycle_t transfer_overhead) const {
  auto cfg = sim::crossbar_config::partial(num_buses, binding);
  cfg.policy = policy;
  cfg.transfer_overhead = transfer_overhead;
  cfg.validate(num_targets);
  return cfg;
}

std::string crossbar_design::to_string() const {
  std::ostringstream out;
  out << "crossbar_design{buses=" << num_buses << "/" << num_targets
      << ", maxov=" << max_overlap
      << (binding_optimal ? "" : " (not proven optimal)") << ", binding=[";
  for (std::size_t i = 0; i < binding.size(); ++i) {
    if (i > 0) out << ",";
    out << binding[i];
  }
  out << "]}";
  return out.str();
}

int min_feasible_buses(const synthesis_input& input,
                       const synthesis_options& opts, int* probes,
                       std::int64_t* probe_nodes) {
  int lo = lower_bound_buses(input);
  int hi = input.num_targets();
  STX_ENSURE(lo <= hi, "bus lower bound above target count");

  // A full configuration (one target per bus) always satisfies Eq. 3-9:
  // comm <= WS within a window by construction, no sharing. Binary search
  // on the monotone predicate "feasible with k buses".
  int count = 0;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    ++count;
    solve_stats stats;
    const bool feasible =
        search_feasible_binding(input, mid, opts.limits, &stats).has_value();
    if (probe_nodes != nullptr) *probe_nodes += stats.nodes;
    if (feasible) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (probes != nullptr) *probes = count;
  return lo;
}

crossbar_design synthesize(const synthesis_input& input,
                           const synthesis_options& opts) {
  obs::span sp("xbar.synthesize", {{"targets", input.num_targets()}});
  crossbar_design out;
  out.num_targets = input.num_targets();
  out.params = input.params();
  out.num_conflicts = input.num_conflicts();

  {
    obs::span probe_sp("xbar.size_search");
    out.num_buses =
        min_feasible_buses(input, opts, &out.probes, &out.feasibility_nodes);
  }

  solve_stats stats;
  if (opts.optimize_binding) {
    const auto sol = search_min_overlap_binding(input, out.num_buses,
                                                opts.limits, &stats);
    STX_ENSURE(sol.has_value(),
               "binding infeasible at the proven-feasible bus count");
    out.binding = sol->binding;
    out.max_overlap = sol->max_overlap;
    out.binding_optimal = sol->proven_optimal;
  } else {
    const auto sol =
        search_feasible_binding(input, out.num_buses, opts.limits, &stats);
    STX_ENSURE(sol.has_value(),
               "binding infeasible at the proven-feasible bus count");
    out.binding = *sol;
    out.max_overlap = input.max_bus_overlap(out.binding, out.num_buses);
    out.binding_optimal = false;
  }
  out.binding_nodes = stats.nodes;

  STX_ENSURE(input.binding_feasible(out.binding, out.num_buses),
             "synthesised binding violates the model");
  obs::add_counter("xbar.synth.runs", 1);
  obs::add_counter("xbar.synth.probes", out.probes);
  obs::add_counter("xbar.synth.feasibility_nodes", out.feasibility_nodes);
  obs::add_counter("xbar.synth.binding_nodes", out.binding_nodes);
  obs::add_counter("xbar.synth.buses", out.num_buses);
  sp.set_attr({"buses", out.num_buses});
  return out;
}

synthesis_input input_from_trace(const traffic::trace& t,
                                 const design_params& params) {
  if (params.burst_window > 0) {
    const auto part = traffic::window_partition::burst_adaptive(
        t, params.burst_window,
        std::max<traffic::cycle_t>(1, params.window_size / 4),
        std::max<traffic::cycle_t>(1, params.window_size * 4));
    const traffic::variable_window_analysis vwa(t, part);
    return synthesis_input(vwa, params);
  }
  const traffic::window_analysis wa(t, params.window_size);
  return synthesis_input(wa, params);
}

crossbar_design synthesize_from_trace(const traffic::trace& t,
                                      const synthesis_options& opts) {
  return synthesize(input_from_trace(t, opts.params), opts);
}

}  // namespace stx::xbar
