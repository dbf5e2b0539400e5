// sweep_synth: one op is one explore::run_sweep over window size x
// overlap threshold (the Figs. 5a/6 axes) for mat1 and fft, with a fresh
// trace_cache, one thread and validation on. On these apps traffic
// analysis and synthesis dominate; one phase-1 collect per app serves
// every point, and each app's designed points validate in one batch.
#include "explore/report.h"
#include "explore/sweep.h"
#include "harness.h"
#include "workloads/mpsoc_apps.h"

namespace perfbench {
namespace {

using namespace stx;

/// Nominal ops per second on a 4-core x86 container (see design_cold).
constexpr double kNominalOpsPerS = 1.5;

explore::sweep_spec sweep_spec(const config& cfg) {
  explore::sweep_spec spec;
  for (const char* name : cfg.tiny ? std::vector<const char*>{"mat1", "des"}
                                   : std::vector<const char*>{"mat1", "fft"}) {
    spec.apps.push_back(*workloads::make_app_by_name(name));
  }
  if (cfg.tiny) {
    spec.grid.window_sizes = {200, 400};
    spec.grid.overlap_thresholds = {0.2, 0.3};
  } else {
    spec.grid.window_sizes = {200, 400, 800};
    spec.grid.overlap_thresholds = {0.2, 0.3, 0.4};
  }
  // The seed orders the grid axes (so the evaluation order); the flow
  // runs at the default simulation seed, as in design_cold.
  seed_stream order(cfg.seed);
  order.shuffle(spec.grid.window_sizes);
  order.shuffle(spec.grid.overlap_thresholds);
  spec.horizon = cfg.tiny ? 20'000 : 120'000;
  spec.validate = true;
  spec.threads = 1;
  return spec;
}

explore::sweep_report sweep_once(const explore::sweep_spec& spec) {
  explore::trace_cache cache;
  return explore::run_sweep(spec, cache);
}

/// The op's output check: the rendered report equals the warm-up's,
/// every grid point of every app was evaluated, from one collect per app.
bool check_sweep(const explore::sweep_report& got, const std::string& ref,
                 const explore::sweep_spec& spec, outcome& out,
                 const std::string& where) {
  const bool same = explore::render_json(got) == ref;
  const bool points =
      got.results.size() == spec.grid.num_points() * spec.apps.size();
  const bool collects =
      got.phase1_simulations == static_cast<std::int64_t>(spec.apps.size());
  out.check(same, where + ": sweep report differs");
  out.check(points, where + ": point count != grid size x apps");
  out.check(collects, where + ": more than one collect per app");
  return same && points && collects;
}

}  // namespace

outcome run_sweep_synth(const config& cfg) {
  outcome out;
  const int reps = cfg.tiny ? 1 : kSetupReps;
  explore::sweep_report ref_report;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = now_ns();
    const auto spec = sweep_spec(cfg);
    ref_report = sweep_once(spec);  // the warm-up op
    out.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const auto spec = sweep_spec(cfg);
  const auto ref = explore::render_json(ref_report);
  {
    std::vector<xbar::flow_report> reports;
    for (const auto& r : ref_report.results) reports.push_back(r.report);
    record_quality(reports, out);
  }
  std::string apps;
  for (const auto& app : spec.apps) {
    apps += (apps.empty() ? "" : ",") + app.name;
  }
  out.facts["apps"] = apps;
  out.facts["grid_points"] = std::to_string(spec.grid.num_points());

  const int n = cfg.tiny ? 3 : fixed_op_count(cfg, kNominalOpsPerS, 20);
  const int timed = cfg.trace ? n / 2 : n;
  // Each op's output is checked, outside its timed span, before the next.
  for (int i = 0; i < timed; ++i) {
    const auto t0 = now_ns();
    const auto got = sweep_once(spec);
    out.op_ms.push_back(ms_between(t0, now_ns()));
    ++out.attempted;
    out.passed += check_sweep(got, ref, spec, out, "op") ? 1 : 0;
  }

  obs::enable();
  if (!cfg.trace) {
    // One untimed counting op with obs on: the work counts.
    reset_obs();
    const auto got = sweep_once(spec);
    out.work = work_from_obs(obs::snapshot());
    out.check(check_sweep(got, ref, spec, out, "counting op"),
              "counting op differs");
    obs::disable();
    return out;
  }

  tracer t;
  std::int64_t events = 0;
  const int traced = n - timed;
  for (int i = 0; i < traced; ++i) {
    const auto origin = reset_obs();
    explore::sweep_report got;
    {
      tracer::scope root(t, "explore::run_sweep", "explore", i);
      got = sweep_once(spec);
    }
    out.check(t.import_obs(obs::trace_events(), origin, i,
                           /*same_thread_as_bench=*/true) == 0,
              "a traced stage ran outside the op's spans");
    const auto work = work_from_obs(obs::snapshot());
    if (i == 0) out.work = work;
    out.check(work == out.work, "traced op work counts differ across ops");
    events += work.at("sim.events");
    ++out.attempted;
    out.passed += check_sweep(got, ref, spec, out, "traced op") &&
                          work == out.work
                      ? 1
                      : 0;
  }
  obs::disable();
  out.spans = t.spans();
  record_layers(self_ns_by_bucket(out.spans), traced, mean(out.op_ms), events,
                out);
  out.layer["explore.sweep_ms"] =
      static_cast<double>(root_ns(out.spans, "explore::run_sweep")) * 1e-6 /
      traced;
  for (const auto& [name, value] : out.work) {
    out.layer[name] = static_cast<double>(value);
  }
  return out;
}

}  // namespace perfbench
