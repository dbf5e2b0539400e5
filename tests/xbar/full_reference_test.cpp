// The phase-4 full-crossbar reference is the phase-1 run itself:
// collect_traces harvests that run's metrics into collected_traces::full
// instead of the flow simulating the full crossbars a second time. The
// reuse is sound only while recording traces leaves the simulation
// unchanged, so validate_full_crossbars — a trace-free re-simulation of
// the same configuration — is kept as the oracle this suite checks it
// against: every built-in app at the paper horizon, and pinned testkit
// scenarios under both arbitration policies the sweep grid exposes.
#include <gtest/gtest.h>

#include "testkit/scenario.h"
#include "util/random.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

namespace stx::xbar {
namespace {

constexpr sim::arbitration kPolicies[] = {sim::arbitration::round_robin,
                                          sim::arbitration::fixed_priority};

/// Pinned scenarios: four sampled from fixed seeds plus one hand-built
/// case with critical streams and a hot-spot target.
std::vector<testkit::scenario> pinned_scenarios() {
  std::vector<testkit::scenario> out;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    rng r(seed);
    out.push_back(testkit::sample_scenario(r));
  }
  testkit::scenario s;
  s.seed = 7;
  s.num_initiators = 5;
  s.num_targets = 3;
  s.hotspot_fraction = 0.4;
  s.hotspot_target = 1;
  s.critical_cores = 2;
  s.horizon = 20'000;
  out.push_back(s);
  return out;
}

TEST(FullReference, PhaseOneMetricsEqualTheOracleOnEveryBuiltInApp) {
  const flow_options opts;  // the paper horizon, default simulator
  for (const auto& name : workloads::app_names()) {
    const auto app = *workloads::make_app_by_name(name);
    const auto traces = collect_traces(app, opts);
    EXPECT_GT(traces.full.packets, 0) << name;
    EXPECT_EQ(traces.full, validate_full_crossbars(app, opts)) << name;
  }
}

TEST(FullReference, PhaseOneMetricsEqualTheOracleOnPinnedScenarios) {
  for (const auto& s : pinned_scenarios()) {
    const auto app = s.make_app();
    for (const auto policy : kPolicies) {
      auto opts = s.make_flow_options();
      opts.policy = policy;
      const auto traces = collect_traces(app, opts);
      EXPECT_GT(traces.full.packets, 0) << testkit::encode(s);
      EXPECT_EQ(traces.full, validate_full_crossbars(app, opts))
          << testkit::encode(s) << " policy " << sim::to_string(policy);
    }
  }
}

TEST(FullReference, ScenariosExerciseCriticalStreams) {
  // Guards the oracle above against comparing only zeroed critical
  // fields: at least one pinned scenario must measure critical packets.
  bool critical = false;
  for (const auto& s : pinned_scenarios()) {
    critical = critical ||
               collect_traces(s.make_app(), s.make_flow_options())
                       .full.avg_critical > 0.0;
  }
  EXPECT_TRUE(critical);
}

TEST(FullReference, TheFlowReportCarriesThePhaseOneRun) {
  const auto app = *workloads::make_app_by_name("mat1");
  const flow_options opts;
  const auto traces = collect_traces(app, opts);
  const auto report = design_from_traces(app, traces, opts);
  EXPECT_EQ(report.full, traces.full);
  EXPECT_EQ(report.full.total_buses, report.full_buses);
  EXPECT_EQ(run_design_flow(app, opts), report);
  // Synthesis-only reports carry no latency metrics at all.
  const auto unvalidated =
      design_from_traces(app, traces, opts, validation_mode::skip);
  EXPECT_EQ(unvalidated.full, validation_metrics{});
  EXPECT_EQ(unvalidated.designed, validation_metrics{});
}

}  // namespace
}  // namespace stx::xbar
