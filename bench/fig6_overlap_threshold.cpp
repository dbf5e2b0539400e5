// Reproduces Figure 6: designed crossbar size versus the overlap
// threshold (as a % of the window size) used in the pre-processing step —
// driven through the explore sweep engine, so the full-crossbar trace is
// simulated once for all threshold points.
//
// Paper reference: the size falls from near-full at 0% (any overlap
// forces separation, the contention-free extreme) to the bandwidth-bound
// minimum by 50% (above 50% the bandwidth constraint subsumes the
// threshold, so the sweep ends there).
//
//   $ ./fig6_overlap_threshold [--horizon=200000] [--threads=N]
//                              [--validate=BOOL] [--json=PATH]
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_common.h"
#include "explore/sweep.h"
#include "util/flags.h"
#include "util/table.h"
#include "workloads/synthetic.h"

namespace {

/// The bench body; stx::run_flagged_main owns flag parsing and usage
/// errors.
int run(const stx::flag_set& flags) {
  using namespace stx;
  bench::print_header(
      "Figure 6 — initiator->target crossbar size vs overlap threshold",
      "synthetic 20-core benchmark, window = 2000 cycles (~2x burst)");

  explore::sweep_spec spec;
  spec.apps = {workloads::make_synthetic()};
  spec.horizon = flags.get_int("horizon", 200'000);
  spec.validate = flags.get_bool("validate", false);
  const unsigned hw = std::thread::hardware_concurrency();
  spec.threads =
      static_cast<int>(flags.get_int("threads", hw == 0 ? 1 : hw));
  spec.grid.window_sizes = {2'000};
  spec.grid.overlap_thresholds = {0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50};
  spec.grid.max_targets_per_bus = {0};

  const auto report = explore::run_sweep(spec);

  table t({"Threshold (% of WS)", "Crossbar size", "Size/full", "Conflicts"});
  const int full_size = spec.apps[0].num_targets;
  for (const auto& r : report.results) {
    t.cell(r.point.overlap_threshold * 100.0, 0)
        .cell(r.report.request_design.num_buses)
        .cell(static_cast<double>(r.report.request_design.num_buses) /
                  full_size,
              2)
        .cell(r.report.request_design.num_conflicts)
        .end_row();
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nshape check: monotone decrease from near-full at 0%% to the "
      "bandwidth-bound size at 50%% (paper Fig. 6).\n");
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
