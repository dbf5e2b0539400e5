// design_cold: one op is a cold design of every built-in application at
// the paper horizon — phases 1-4 plus artifact generation for every
// backend, in-process, on one thread, with no store. This is what a
// designer waits for from xbargen; simulation dominates it. Each app's
// design is timed as one part of the op.
#include <optional>

#include "explore/codec.h"
#include "harness.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/synthesis.h"

namespace perfbench {
namespace {

using namespace stx;

/// Nominal ops per second on a 4-core x86 container; sets the fixed op
/// count so a run lasts about --seconds there.
constexpr double kNominalOpsPerS = 4.0;

struct design {
  xbar::flow_report report;
  std::vector<gen::artifact> artifacts;
};

/// Every built-in app, in an order drawn from the seed. The flow itself
/// runs at its default options (simulation seed 1): other simulation
/// seeds change the solver's work by up to 2.5x, which would make the
/// run-to-run spread a property of the seed rather than of the host.
std::vector<workloads::app_spec> cold_apps(const config& cfg) {
  auto names = cfg.tiny ? std::vector<std::string>{"mat1", "des"}
                        : workloads::app_names();
  seed_stream(cfg.seed).shuffle(names);
  std::vector<workloads::app_spec> apps;
  for (const auto& name : names) {
    apps.push_back(*workloads::make_app_by_name(name));
  }
  return apps;
}

xbar::flow_options cold_options(const config& cfg) {
  xbar::flow_options opts;
  opts.horizon = cfg.tiny ? 20'000 : 120'000;
  return opts;
}

/// The product path: run_design_flow, then every artifact backend.
design design_one(const workloads::app_spec& app,
                  const xbar::flow_options& opts) {
  design d;
  d.report = xbar::run_design_flow(app, opts);
  d.artifacts = xbar::generate_artifacts(d.report, {});
  return d;
}

std::vector<design> design_all(const std::vector<workloads::app_spec>& apps,
                               const xbar::flow_options& opts) {
  std::vector<design> out;
  for (const auto& app : apps) out.push_back(design_one(app, opts));
  return out;
}

std::vector<std::vector<traffic::cycle_t>> link_totals(
    const traffic::trace& t) {
  std::vector<std::vector<traffic::cycle_t>> out(
      static_cast<std::size_t>(t.num_initiators()),
      std::vector<traffic::cycle_t>(static_cast<std::size_t>(t.num_targets()),
                                    0));
  for (const auto& e : t.events()) {
    out[static_cast<std::size_t>(e.initiator)]
       [static_cast<std::size_t>(e.target)] += e.end - e.begin;
  }
  return out;
}

/// The traced path: the same stages called one at a time, each under a
/// benchmark span, assembling the report exactly as the flow does.
design design_traced(const workloads::app_spec& app,
                     const xbar::flow_options& opts, tracer& t,
                     std::int64_t op) {
  using scope = tracer::scope;
  xbar::collected_traces traces;
  {
    scope s(t, "xbar::collect_traces", "sim.collect", op);
    traces = xbar::collect_traces(app, opts);
  }
  const auto req_params = xbar::effective_synthesis_params(opts, true);
  const auto resp_params = xbar::effective_synthesis_params(opts, false);
  std::optional<xbar::synthesis_input> req_in;
  std::optional<xbar::synthesis_input> resp_in;
  {
    scope s(t, "xbar::input_from_trace", "traffic.analyze", op);
    req_in = xbar::input_from_trace(traces.request, req_params);
    resp_in = xbar::input_from_trace(traces.response, resp_params);
  }
  design d;
  auto& r = d.report;
  {
    scope s(t, "xbar::synthesize", "xbar.synthesize", op);
    auto so = opts.synth;
    so.params = req_params;
    r.request_design = xbar::synthesize(*req_in, so);
    so.params = resp_params;
    r.response_design = xbar::synthesize(*resp_in, so);
  }
  {
    scope s(t, "assemble report", "bench", op);
    r.app_name = app.name;
    r.num_initiators = app.num_initiators;
    r.num_targets = app.num_targets;
    r.target_names = app.target_names;
    for (int k = static_cast<int>(r.target_names.size()); k < app.num_targets;
         ++k) {
      r.target_names.push_back("tgt" + std::to_string(k));
    }
    r.request_traffic = link_totals(traces.request);
    r.response_traffic = link_totals(traces.response);
    r.full_buses = app.total_cores();
    r.designed_buses = r.request_design.num_buses + r.response_design.num_buses;
  }
  {
    scope s(t, "xbar::validate_configuration", "sim.validate_designed", op);
    r.designed = xbar::validate_configuration(
        app, r.request_design.to_config(opts.policy, opts.transfer_overhead),
        r.response_design.to_config(opts.policy, opts.transfer_overhead),
        opts);
  }
  {
    scope s(t, "xbar::validate_full_crossbars", "sim.validate_full", op);
    r.full = xbar::validate_full_crossbars(app, opts);
  }
  {
    scope s(t, "xbar::generate_artifacts", "gen.generate", op);
    d.artifacts = xbar::generate_artifacts(r, {});
  }
  return d;
}

std::int64_t artifact_bytes(const std::vector<design>& designs) {
  std::int64_t bytes = 0;
  for (const auto& d : designs) {
    for (const auto& a : d.artifacts) {
      bytes += static_cast<std::int64_t>(a.content.size());
    }
  }
  return bytes;
}

/// True when `got` matches the reference byte for byte (reports through
/// encode_report, artifacts by content) and no design uses more buses
/// than the full crossbar.
bool same_designs(const std::vector<design>& got,
                  const std::vector<std::string>& ref_reports,
                  const std::vector<design>& ref, outcome& out,
                  const std::string& where) {
  bool ok = got.size() == ref.size();
  for (std::size_t i = 0; ok && i < got.size(); ++i) {
    const auto& r = got[i].report;
    const bool same = explore::encode_report(r) == ref_reports[i];
    bool arts = got[i].artifacts.size() == ref[i].artifacts.size();
    for (std::size_t k = 0; arts && k < got[i].artifacts.size(); ++k) {
      arts = got[i].artifacts[k].content == ref[i].artifacts[k].content;
    }
    const bool buses = r.designed_buses <= r.full_buses && r.designed_buses > 0;
    out.check(same, where + ": report of " + r.app_name + " differs");
    out.check(arts, where + ": artifacts of " + r.app_name + " differ");
    out.check(buses, where + ": " + r.app_name + " uses more buses than full");
    ok = same && arts && buses;
  }
  return ok;
}

}  // namespace

outcome run_design_cold(const config& cfg) {
  outcome out;
  std::vector<design> ref;
  const int reps = cfg.tiny ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = now_ns();
    const auto apps = cold_apps(cfg);
    const auto opts = cold_options(cfg);
    ref = design_all(apps, opts);  // the warm-up op
    out.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const auto apps = cold_apps(cfg);
  const auto opts = cold_options(cfg);
  std::vector<std::string> ref_reports;
  std::vector<xbar::flow_report> reports;
  for (const auto& d : ref) {
    ref_reports.push_back(explore::encode_report(d.report));
    reports.push_back(d.report);
  }
  record_quality(reports, out);

  const int n = cfg.tiny ? 3 : fixed_op_count(cfg, kNominalOpsPerS, 20);
  const int timed = cfg.trace ? n / 2 : n;
  // Each op's output is checked, outside its timed span, before the next.
  for (int i = 0; i < timed; ++i) {
    std::vector<design> got;
    double op_ms = 0.0;
    for (const auto& app : apps) {
      const auto t0 = now_ns();
      got.push_back(design_one(app, opts));
      const double ms = ms_between(t0, now_ns());
      out.part_ms[app.name].push_back(ms);
      op_ms += ms;
    }
    out.op_ms.push_back(op_ms);
    ++out.attempted;
    out.passed += same_designs(got, ref_reports, ref, out, "op") ? 1 : 0;
  }
  std::string order;
  for (const auto& app : apps) order += (order.empty() ? "" : ",") + app.name;
  out.facts["app_order"] = order;

  obs::enable();
  if (!cfg.trace) {
    // One untimed counting op with obs on: the work counts.
    reset_obs();
    const auto got = design_all(apps, opts);
    out.work = work_from_obs(obs::snapshot());
    out.work["gen.bytes"] = artifact_bytes(got);
    out.check(same_designs(got, ref_reports, ref, out, "counting op"),
              "counting op differs");
    obs::disable();
    return out;
  }

  tracer t;
  std::int64_t events = 0;
  const int traced = n - timed;
  for (int i = 0; i < traced; ++i) {
    const auto origin = reset_obs();
    std::vector<design> got;
    {
      tracer::scope root(t, "design_cold.op", "bench", i);
      for (const auto& app : apps) {
        got.push_back(design_traced(app, opts, t, i));
      }
    }
    out.check(t.import_obs(obs::trace_events(), origin, i,
                           /*same_thread_as_bench=*/true) == 0,
              "a traced stage ran outside the op's spans");
    auto work = work_from_obs(obs::snapshot());
    work["gen.bytes"] = artifact_bytes(got);
    if (i == 0) out.work = work;
    out.check(work == out.work, "traced op work counts differ across ops");
    events += work["sim.events"];
    ++out.attempted;
    out.passed += same_designs(got, ref_reports, ref, out, "traced op") &&
                          work == out.work
                      ? 1
                      : 0;
  }
  obs::disable();
  out.spans = t.spans();
  record_layers(self_ns_by_bucket(out.spans), traced, mean(out.op_ms), events,
                out);
  for (const auto& [name, value] : out.work) {
    out.layer[name] = static_cast<double>(value);
  }
  return out;
}

}  // namespace perfbench
