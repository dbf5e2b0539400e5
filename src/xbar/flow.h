// End-to-end design flow (paper Fig. 3): full-crossbar simulation ->
// window analysis & pre-processing -> synthesis -> validation simulation.
#pragma once

#include <string>
#include <vector>

#include "gen/artifact.h"
#include "workloads/app.h"
#include "xbar/baselines.h"
#include "xbar/synthesis.h"

namespace stx::xbar {

/// Latency metrics of one validation simulation (phase 4).
struct validation_metrics {
  double avg_latency = 0.0;   ///< mean packet latency, both crossbars
  double max_latency = 0.0;
  double p99_latency = 0.0;
  double avg_critical = 0.0;  ///< mean latency of critical packets (0 if none)
  double max_critical = 0.0;
  std::int64_t packets = 0;
  std::int64_t transactions = 0;
  std::int64_t iterations = 0;  ///< completed core loop iterations
  int total_buses = 0;          ///< request + response bus count

  bool operator==(const validation_metrics&) const = default;
};

/// Flow knobs.
struct flow_options {
  /// Cycles simulated for trace collection (phase 1) and for each
  /// validation run (phase 4).
  traffic::cycle_t horizon = 120'000;
  /// Synthesis settings applied to BOTH directions (the window size may
  /// be overridden per direction via request/response overrides below).
  synthesis_options synth;
  /// Optional per-direction parameter overrides (<=0 / negative values
  /// mean "use synth.params").
  traffic::cycle_t request_window_override = 0;
  traffic::cycle_t response_window_override = 0;
  /// Simulator settings shared by all runs.
  sim::arbitration policy = sim::arbitration::round_robin;
  traffic::cycle_t transfer_overhead = 2;
  std::uint64_t seed = 1;
};

/// Everything the flow produced for one application. This is also the
/// input of the generation phase (src/gen/): artifact backends consume a
/// flow_report and nothing else, so it carries the endpoint names and the
/// phase-1 traffic totals alongside the two designs.
struct flow_report {
  std::string app_name;
  int num_initiators = 0;
  int num_targets = 0;
  /// Target names from the app spec ("tgt<i>" placeholders when absent).
  std::vector<std::string> target_names;
  crossbar_design request_design;   ///< initiator->target crossbar
  crossbar_design response_design;  ///< target->initiator crossbar
  validation_metrics designed;      ///< the synthesised partial crossbars
  validation_metrics full;          ///< full crossbars reference
  int full_buses = 0;               ///< total buses of the full config
  int designed_buses = 0;           ///< total buses of the design
  /// Phase-1 busy-cycle totals per link: request_traffic[i][t] counts the
  /// cycles initiator i kept target t busy; response_traffic[t][i] the
  /// reverse direction. Artifact backends use these as edge weights.
  std::vector<std::vector<traffic::cycle_t>> request_traffic;
  std::vector<std::vector<traffic::cycle_t>> response_traffic;

  double savings() const {
    if (designed_buses == 0) return 0.0;
    return static_cast<double>(full_buses) /
           static_cast<double>(designed_buses);
  }

  bool operator==(const flow_report&) const = default;
};

/// Runs phases 1-4 for `app` and returns the report. Deterministic for a
/// given (app, options) pair.
flow_report run_design_flow(const workloads::app_spec& app,
                            const flow_options& opts);

/// Test oracle for the phase-4 reference point: re-simulates full
/// crossbars on both directions with the same simulator settings as the
/// designed run, without recording traces. The flow never calls it — the
/// reference is the phase-1 run itself (collected_traces::full), since
/// recording traces does not change the simulation; tests assert the two
/// agree bit for bit.
validation_metrics validate_full_crossbars(const workloads::app_spec& app,
                                           const flow_options& opts);

/// Phase 4 only: simulate `app` on explicit crossbar configs and measure.
validation_metrics validate_configuration(const workloads::app_spec& app,
                                          const sim::crossbar_config& req,
                                          const sim::crossbar_config& resp,
                                          const flow_options& opts);

/// The synthesis parameters design_from_traces actually uses for one
/// direction: opts.synth.params with the per-direction window override
/// applied. The single source of the override rule — verification
/// harnesses (src/testkit) rebuild a direction's model through this, so
/// they can never diverge from what the flow solved.
design_params effective_synthesis_params(const flow_options& opts,
                                         bool request_direction);

/// Phase 1 (full crossbars): the functional traffic traces plus the
/// run's own latency metrics, which are phase 4's full-crossbar
/// reference. Depends only on (app, horizon, seed, policy,
/// transfer_overhead) — never on the synthesis knobs — so sweep engines
/// collect it once per application.
struct collected_traces {
  traffic::trace request;   ///< events keyed by target id
  traffic::trace response;  ///< events keyed by initiator id
  validation_metrics full;  ///< the phase-1 run measured as phase 4 does

  bool operator==(const collected_traces&) const = default;
};
collected_traces collect_traces(const workloads::app_spec& app,
                                const flow_options& opts);

/// Whether phase 4 runs after synthesis.
enum class validation_mode {
  /// Run the designed-configuration validation simulation.
  validate,
  /// Skip phase 4 entirely: the report still carries the designs,
  /// endpoint names, traffic matrices and bus counts, with zeroed latency
  /// metrics — synthesis-only sweeps (Figs. 5-6 shapes) need nothing
  /// more.
  skip,
};

/// Stage "analyze + synthesize" (phases 2-3) alone: window analysis,
/// pre-processing and crossbar synthesis for both directions from an
/// injected phase-1 result, honouring the per-direction window
/// overrides. The report comes back unvalidated (zeroed latency metrics)
/// but otherwise complete, and is exactly what the persistent store
/// caches at the synthesis stage.
flow_report synthesize_design(const workloads::app_spec& app,
                              const collected_traces& traces,
                              const flow_options& opts);

/// Stage "validate" (phase 4) against an already-synthesised report:
/// simulates the designed configuration into report.designed and copies
/// the phase-1 run's metrics (traces.full) into report.full. Idempotent:
/// re-running overwrites the same fields.
void validate_design(const workloads::app_spec& app,
                     const collected_traces& traces, const flow_options& opts,
                     flow_report& report);

/// Phases 2-4 with an injected phase-1 result: `synthesize_design`
/// followed by `validate_design` (unless `mode` is skip).
/// `run_design_flow` is exactly `collect_traces` + this; design-space
/// sweeps and the design service call it directly so one cached trace
/// serves many parameter points.
flow_report design_from_traces(const workloads::app_spec& app,
                               const collected_traces& traces,
                               const flow_options& opts,
                               validation_mode mode = validation_mode::validate);

/// Phase 5, "Generation" (the step Fig. 3 feeds into): renders `report`
/// into deployable artifacts through the gen backend registry. Backend
/// names are resolved via gen::registry; unknown names throw. Pure — use
/// gen::write_artifacts to put the results on disk.
std::vector<gen::artifact> generate_artifacts(const flow_report& report,
                                              const gen::generate_options& opts);

}  // namespace stx::xbar
