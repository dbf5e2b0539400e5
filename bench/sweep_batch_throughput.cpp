// Batched lockstep driver vs per-session validation: designs/second
// over a synthetic (design-point, seed) grid — the workload shape
// explore::run_sweep's phase-4 cohorts run. Every instance is checked
// bit-identical between the two paths (run_metrics operator==, doubles
// included) before any rate is reported: a speedup from a diverging
// simulator would be worthless.
//
// The batched driver is thread-batched, exactly like the sweep's
// validation cohorts: instances are mutually independent, so cohorts
// fan out across worker threads without changing any per-instance
// event order (the bit-identity check covers the threaded rows too).
// Single-thread rows isolate the SoA calendar kernel itself; the
// headline "batched" figure is the driver as deployed — cohorts of
// --batch across --threads workers — against the serial per-session
// baseline.
//
//   $ ./sweep_batch_throughput [--points=10000] [--horizon=2000]
//                              [--batch=32] [--threads=N] [--repeats=3]
//                              [--json=BENCH_sweep.json]
//
// JSON schema `stx-bench-sweep-batch/v1`:
//   {points, horizon, batch_size, threads, bit_identical,
//    session: {wall_seconds, designs_per_second},
//    batched: {threads, wall_seconds, designs_per_second,
//              speedup_vs_session},
//    batch_sizes: [{batch_size, threads, wall_seconds,
//                   designs_per_second, speedup_vs_session}]}
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/json.h"
#include "sim/batch.h"
#include "sim/session.h"
#include "util/table.h"
#include "workloads/app.h"
#include "workloads/synthetic.h"

namespace {

using namespace stx;

/// The (design-point, seed) grid: three crossbar shapes x three
/// arbitration policies, seeds rolling so no two instances share an RNG
/// stream — the mix a sweep's validation cohorts actually contain.
std::vector<sim::system_config> make_grid(const workloads::app_spec& app,
                                          int points) {
  const sim::arbitration policies[] = {
      sim::arbitration::round_robin, sim::arbitration::fixed_priority,
      sim::arbitration::least_recently_granted};
  std::vector<int> striped(static_cast<std::size_t>(app.num_targets));
  for (std::size_t e = 0; e < striped.size(); ++e) {
    striped[e] = static_cast<int>(e % 2);
  }
  std::vector<int> striped_resp(static_cast<std::size_t>(app.num_initiators));
  for (std::size_t e = 0; e < striped_resp.size(); ++e) {
    striped_resp[e] = static_cast<int>(e % 2);
  }
  std::vector<sim::system_config> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int k = 0; k < points; ++k) {
    sim::system_config cfg;
    cfg.record_traces = false;
    cfg.seed = static_cast<std::uint64_t>(k) + 1;
    cfg.request.policy = cfg.response.policy = policies[k % 3];
    switch ((k / 3) % 3) {
      case 0:
        cfg.request = sim::crossbar_config::full(app.num_targets);
        cfg.response = sim::crossbar_config::full(app.num_initiators);
        break;
      case 1:
        cfg.request = sim::crossbar_config::shared(app.num_targets);
        cfg.response = sim::crossbar_config::shared(app.num_initiators);
        break;
      default:
        cfg.request = sim::crossbar_config::partial(2, striped);
        cfg.response = sim::crossbar_config::partial(2, striped_resp);
        break;
    }
    cfg.request.policy = cfg.response.policy = policies[k % 3];
    out.push_back(cfg);
  }
  return out;
}

std::vector<sim::run_metrics> run_sessions(
    const workloads::app_spec& app,
    const std::vector<sim::system_config>& grid, traffic::cycle_t horizon) {
  std::vector<sim::run_metrics> out;
  out.reserve(grid.size());
  for (const auto& cfg : grid) {
    auto session =
        workloads::make_session(app, cfg.request, cfg.response, cfg);
    session.run(horizon);
    out.push_back(session.metrics());
  }
  return out;
}

std::vector<sim::run_metrics> run_batches(
    const workloads::app_spec& app,
    const std::vector<sim::system_config>& grid, traffic::cycle_t horizon,
    int batch_size, int threads) {
  std::vector<sim::run_metrics> out(grid.size());
  const auto bs = static_cast<std::size_t>(batch_size);
  const std::size_t cohorts = (grid.size() + bs - 1) / bs;
  std::atomic<std::size_t> next{0};
  // Cohorts are claimed off a shared counter; each writes only its own
  // disjoint result slots, so the output is identical for any thread
  // count (instances never share state).
  const auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < cohorts;
         k = next.fetch_add(1)) {
      const auto off = k * bs;
      const auto end = std::min(grid.size(), off + bs);
      auto batch = workloads::make_batch(app);
      for (std::size_t i = off; i < end; ++i) batch.add_instance(grid[i]);
      batch.run(horizon);
      for (std::size_t i = off; i < end; ++i) {
        out[i] = batch.metrics(static_cast<int>(i - off));
      }
    }
  };
  if (threads <= 1) {
    worker();
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return out;
}

/// The bench body; bench::run_main owns flag parsing and usage errors.
int run(const flag_set& flags) {
  const int points = static_cast<int>(flags.get_int("points", 10'000));
  const traffic::cycle_t horizon = flags.get_int("horizon", 2'000);
  const int batch_size = static_cast<int>(flags.get_int("batch", 32));
  const int threads = static_cast<int>(flags.get_int(
      "threads",
      static_cast<std::int64_t>(
          std::max(1u, std::thread::hardware_concurrency()))));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  bench::print_header(
      "Batched lockstep validation vs one session per design point",
      std::to_string(points) + " synthetic (design-point, seed) instances, "
          "horizon " + std::to_string(horizon) + ", best of " +
          std::to_string(repeats));

  workloads::synthetic_params params;
  params.num_cores = 8;
  const auto app = workloads::make_synthetic(params);
  const auto grid = make_grid(app, points);

  std::vector<sim::run_metrics> session_metrics;
  const auto session_acc = bench::time_reps(repeats, [&](int) {
    obs::stopwatch sw;
    session_metrics = run_sessions(app, grid, horizon);
    return sw.seconds();
  });
  const double session_sec = session_acc.min_seconds();
  const double session_rate = static_cast<double>(points) / session_sec;

  // The batched path at the headline cohort size plus a size sweep, every
  // run checked bit-identical against the session reference.
  bool identical = true;
  const auto check = [&](const std::vector<sim::run_metrics>& got) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!(got[i] == session_metrics[i])) {
        std::fprintf(stderr,
                     "bench: batch metrics diverge from session at "
                     "instance %zu\n",
                     i);
        identical = false;
        return;
      }
    }
  };

  table t({"Path", "Batch", "Threads", "Wall (s)", "Designs/s", "Speedup"});
  t.cell("session").cell(static_cast<std::int64_t>(1))
      .cell(static_cast<std::int64_t>(1))
      .cell(session_sec, 3).cell(session_rate, 0).cell(1.0, 2).end_row();

  // One timed row per (batch size, thread count); returns best-of-reps
  // seconds after checking the result bit-identical to the sessions.
  gen::json::array size_rows;
  const auto time_row = [&](int bs, int nthreads) {
    std::vector<sim::run_metrics> got;
    const auto acc = bench::time_reps(repeats, [&](int) {
      obs::stopwatch sw;
      got = run_batches(app, grid, horizon, bs, nthreads);
      return sw.seconds();
    });
    check(got);
    const double sec = acc.min_seconds();
    const double rate = static_cast<double>(points) / sec;
    const double speedup = session_sec / sec;
    t.cell("batched").cell(static_cast<std::int64_t>(bs))
        .cell(static_cast<std::int64_t>(nthreads))
        .cell(sec, 3).cell(rate, 0).cell(speedup, 2).end_row();
    size_rows.push_back(gen::json::object{
        {"batch_size", static_cast<std::int64_t>(bs)},
        {"threads", static_cast<std::int64_t>(nthreads)},
        {"wall_seconds", sec},
        {"designs_per_second", rate},
        {"speedup_vs_session", speedup},
    });
    return sec;
  };

  // Single-thread rows isolate the SoA kernel across cohort sizes...
  double headline_sec = 0.0;
  for (const int bs : {8, batch_size, 128}) {
    const double sec = time_row(bs, 1);
    if (bs == batch_size) headline_sec = sec;
  }
  // ...and the headline row is the driver as deployed: cohorts of
  // --batch fanned across --threads workers (same row when threads=1).
  if (threads > 1) headline_sec = time_row(batch_size, threads);

  std::printf("%s", t.render().c_str());
  const double headline_speedup = session_sec / headline_sec;
  std::printf("\nbatched (cohorts of %d on %d thread%s) vs per-session: "
              "%.2fx, bit-identical: %s\n",
              batch_size, threads, threads == 1 ? "" : "s",
              headline_speedup, identical ? "yes" : "NO");

  const auto json_path = flags.get_string("json", "");
  if (!json_path.empty()) {
    const gen::json::value doc = gen::json::object{
        {"schema", "stx-bench-sweep-batch/v1"},
        {"points", static_cast<std::int64_t>(points)},
        {"horizon", static_cast<std::int64_t>(horizon)},
        {"batch_size", static_cast<std::int64_t>(batch_size)},
        {"threads", static_cast<std::int64_t>(threads)},
        {"bit_identical", identical},
        {"session",
         gen::json::object{{"wall_seconds", session_sec},
                           {"designs_per_second", session_rate}}},
        {"batched",
         gen::json::object{{"threads", static_cast<std::int64_t>(threads)},
                           {"wall_seconds", headline_sec},
                           {"designs_per_second",
                            static_cast<double>(points) / headline_sec},
                           {"speedup_vs_session", headline_speedup}}},
        {"batch_sizes", std::move(size_rows)},
    };
    std::ofstream out(json_path);
    out << gen::json::dump(doc);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(
      argc, argv,
      {"points", "horizon", "batch", "threads", "repeats", "json"}, run);
}
