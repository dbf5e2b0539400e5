// Reproduces Figure 5(a): designed initiator->target crossbar size as a
// function of the analysis window size, on the 20-core synthetic
// benchmark with ~1000-cycle bursts — driven through the explore sweep
// engine, so the full-crossbar trace is simulated once and the window
// points evaluate in parallel.
//
// Paper reference: window << burst  -> size close to full (10);
//                  window 1-4x burst -> ~25% of full;
//                  very large window -> converges to the average design.
//
//   $ ./fig5a_window_size [--horizon=400000] [--threads=N]
//                         [--validate=BOOL] [--json=PATH]
//
// --json writes the sweep report (e.g. BENCH_sweep.json for the CI bench
// smoke job's perf trajectory artifact).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_common.h"
#include "explore/sweep.h"
#include "traffic/burst.h"
#include "util/flags.h"
#include "util/table.h"
#include "workloads/synthetic.h"

namespace {

/// The bench body; stx::run_flagged_main owns flag parsing and usage
/// errors.
int run(const stx::flag_set& flags) {
  using namespace stx;
  bench::print_header(
      "Figure 5(a) — initiator->target crossbar size vs window size",
      "synthetic 20-core benchmark, burst ~= 1000 busy cycles; maxtb off");

  explore::sweep_spec spec;
  spec.apps = {workloads::make_synthetic()};
  spec.horizon = flags.get_int("horizon", 400'000);
  spec.validate = flags.get_bool("validate", false);
  const unsigned hw = std::thread::hardware_concurrency();
  spec.threads =
      static_cast<int>(flags.get_int("threads", hw == 0 ? 1 : hw));
  spec.grid.window_sizes = {200,  300,  400,  750,    1000,   2000,
                            3000, 4000, 8000, 50'000, 400'000};
  spec.grid.overlap_thresholds = {0.30};
  spec.grid.max_targets_per_bus = {0};  // isolate the window-size effect

  explore::trace_cache cache;
  const auto report = explore::run_sweep(spec, cache);

  // The cached phase-1 trace also supplies the burst-length estimate —
  // no extra simulation.
  const auto traces = cache.traces(
      spec.apps[0],
      explore::options_for(spec, explore::sweep_points(spec)[0]));
  const double burst =
      traffic::typical_burst_length(traces->request, /*gap_threshold=*/50);

  table t({"Window (cycles)", "Window/burst", "Crossbar size", "Size/full"});
  const int full_size = spec.apps[0].num_targets;
  for (const auto& r : report.results) {
    t.cell(static_cast<std::int64_t>(r.point.window_size))
        .cell(static_cast<double>(r.point.window_size) / burst, 2)
        .cell(r.report.request_design.num_buses)
        .cell(static_cast<double>(r.report.request_design.num_buses) /
                  full_size,
              2)
        .end_row();
  }
  std::printf("measured typical burst length: %.0f cycles\n\n", burst);
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nshape check: near-full size for windows below the burst size, "
      "a knee around 1-4x the burst, small sizes for huge windows.\n");
  std::printf("phase-1 simulations: %lld (one per app, shared by %zu "
              "points)\n",
              static_cast<long long>(report.phase1_simulations),
              report.results.size());

  const auto json_path = flags.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << explore::render_json(report);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return stx::run_flagged_main(argc, argv, "bench",
                               {"horizon", "threads", "validate", "json"},
                               run);
}
