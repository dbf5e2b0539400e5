// Design-space exploration: sweeps the three methodology knobs (window
// size, overlap threshold, maxtb) on one application and prints the
// size/latency frontier, optionally as CSV for plotting.
//
//   $ ./design_space_exploration [--app=mat2] [--csv] [--horizon=120000]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/flags.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"
#include "xbar/flow.h"

namespace {

stx::workloads::app_spec pick_app(const std::string& name) {
  auto app = stx::workloads::make_app_by_name(name);
  if (!app.has_value()) {
    std::fprintf(stderr, "unknown --app=%s (%s)\n", name.c_str(),
                 stx::workloads::app_name_list().c_str());
    std::exit(2);
  }
  return *std::move(app);
}

int run(const stx::flag_set& flags) {
  using namespace stx;
  const auto app = pick_app(flags.get_string("app", "mat2"));

  xbar::flow_options opts;
  opts.horizon = flags.get_int("horizon", 120'000);

  // Collect once; every design point reuses the same traces, and the
  // collection run is the full-crossbar reference.
  const auto traces = xbar::collect_traces(app, opts);
  const auto& full = traces.full;

  table t({"window", "threshold", "maxtb", "buses(req+resp)", "avg lat",
           "avg/full", "max lat"});
  for (const traffic::cycle_t ws : {200, 400, 1000, 4000}) {
    for (const double thr : {0.10, 0.30, 0.50}) {
      for (const int maxtb : {0, 4}) {
        xbar::synthesis_options so;
        so.params.window_size = ws;
        so.params.overlap_threshold = thr;
        so.params.max_targets_per_bus = maxtb;
        const auto req = xbar::synthesize_from_trace(traces.request, so);
        const auto resp = xbar::synthesize_from_trace(traces.response, so);
        const auto m = xbar::validate_configuration(
            app, req.to_config(opts.policy, opts.transfer_overhead),
            resp.to_config(opts.policy, opts.transfer_overhead), opts);
        t.cell(static_cast<std::int64_t>(ws))
            .cell(thr, 2)
            .cell(maxtb == 0 ? std::string("off") : std::to_string(maxtb))
            .cell(std::to_string(req.num_buses) + "+" +
                  std::to_string(resp.num_buses))
            .cell(m.avg_latency, 2)
            .cell(m.avg_latency / full.avg_latency, 2)
            .cell(m.max_latency, 0)
            .end_row();
      }
    }
  }
  std::printf("design space of %s (full crossbar: avg %.2f cy, %d buses)\n\n",
              app.name.c_str(), full.avg_latency, app.total_cores());
  if (flags.has("csv")) {
    std::printf("%s", t.render_csv().c_str());
  } else {
    std::printf("%s", t.render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return stx::run_flagged_main(argc, argv, "design_space_exploration",
                               {"app", "csv", "horizon"}, run);
}
