#include "explore/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "explore/codec.h"
#include "obs/obs.h"
#include "util/error.h"

namespace stx::explore {

std::vector<sweep_point> sweep_points(const sweep_spec& spec) {
  auto points = expand_grid(spec.grid);
  for (const auto& p : spec.extra_points) {
    if (std::find(points.begin(), points.end(), p) == points.end()) {
      points.push_back(p);
    }
  }
  // An all-default grid is meaningful only when the caller asked for it
  // via extra_points; expand_grid of an empty grid yields the single
  // default point, which run_sweep accepts (one-point "sweep").
  return points;
}

xbar::flow_options options_for(const sweep_spec& spec,
                               const sweep_point& point) {
  xbar::flow_options opts;
  opts.horizon = spec.horizon;
  opts.seed = spec.seed;
  opts.transfer_overhead = spec.transfer_overhead;
  opts.policy = point.policy;
  opts.synth = spec.synth_base;
  opts.synth.params.window_size = point.window_size;
  opts.synth.params.overlap_threshold = point.overlap_threshold;
  opts.synth.params.max_targets_per_bus = point.max_targets_per_bus;
  opts.synth.params.burst_window = point.burst_window;
  opts.request_window_override = point.request_window;
  opts.response_window_override = point.response_window;
  return opts;
}

namespace {

/// Phases 2-4 for one point against the cached phase-1 state. With a
/// persistent store behind the cache, the point's designed metrics are
/// content-addressed under the stage=metrics key: a hit skips the
/// phase-4 simulation (a warm result is bit-identical to a fresh one by
/// the codec round-trip contract), a miss simulates and writes through.
sweep_result evaluate_point(const sweep_spec& spec,
                            const workloads::app_spec& app,
                            const sweep_point& point, trace_cache& cache,
                            std::atomic<std::int64_t>& designed_store_hits) {
  const auto opts = options_for(spec, point);
  const auto traces = cache.traces(app, opts);
  sweep_result result;
  result.app_name = app.name;
  result.point = point;
  result.validated = spec.validate;
  result.report = xbar::synthesize_design(app, *traces, opts);
  if (!spec.validate) return result;
  kv_store* const store = cache.backing();
  if (store != nullptr) {
    if (auto blob = store->get(metrics_key(app.name, opts))) {
      try {
        result.report.designed = decode_metrics(*blob);
        result.report.full = traces->full;
        ++designed_store_hits;
        return result;
      } catch (const std::exception&) {
        // Undecodable object: re-simulate (the put below heals it).
      }
    }
  }
  xbar::validate_design(app, *traces, opts, result.report);
  if (store != nullptr) {
    store->put(metrics_key(app.name, opts),
               encode_metrics(result.report.designed));
  }
  return result;
}

/// Runs `worker(0..threads-1)` on a pool (inline when threads <= 1).
template <typename Fn>
void run_workers(int threads, std::size_t num_jobs, const Fn& worker) {
  const int n = std::min<int>(std::max(threads, 1),
                              static_cast<int>(num_jobs));
  if (n <= 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();
}

}  // namespace

sweep_report run_sweep(const sweep_spec& spec, trace_cache& cache) {
  STX_REQUIRE(!spec.apps.empty(), "sweep spec has no applications");
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    spec.apps[i].validate();
    for (std::size_t j = i + 1; j < spec.apps.size(); ++j) {
      STX_REQUIRE(spec.apps[i].name != spec.apps[j].name,
                  "duplicate app name '" + spec.apps[i].name +
                      "' in sweep spec (names key the trace cache)");
    }
  }
  const auto points = sweep_points(spec);
  STX_REQUIRE(!points.empty(), "sweep spec expands to zero points");

  // Flattened job list, app-major then grid order: results land at their
  // job index, so the report order never depends on scheduling. Workers
  // CLAIM jobs app-interleaved, though — app-major claiming would pile
  // every early worker onto app 0's trace future while its one loader
  // simulates, serialising the expensive per-app phase-1 runs.
  struct job {
    const workloads::app_spec* app;
    const sweep_point* point;
  };
  const std::size_t num_apps = spec.apps.size();
  const std::size_t num_points = points.size();
  std::vector<job> jobs;
  jobs.reserve(num_apps * num_points);
  for (const auto& app : spec.apps) {
    for (const auto& point : points) {
      jobs.push_back({&app, &point});
    }
  }

  obs::span sweep_span("explore.sweep",
                       {{"apps", static_cast<std::int64_t>(num_apps)},
                        {"jobs", static_cast<std::int64_t>(jobs.size())}});
  obs::add_counter("explore.points", static_cast<std::int64_t>(jobs.size()));

  const auto stats_before = cache.stats();
  const auto by_app_before = cache.stats_by_app();
  std::vector<sweep_result> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> designed_store_hits{0};
  const auto worker = [&](int worker_index) {
    // One span per worker thread: its duration against the sweep span's
    // is the worker's utilization, and each claimed job lands as a child
    // span on the worker's own trace track.
    obs::span wsp("explore.worker", {{"worker", worker_index}});
    std::int64_t claimed = 0;
    for (std::size_t k = next.fetch_add(1); k < jobs.size();
         k = next.fetch_add(1)) {
      // k-th claim -> app (k mod A), point (k div A).
      const std::size_t i = (k % num_apps) * num_points + k / num_apps;
      ++claimed;
      try {
        obs::span jsp("explore.point", {{"app", jobs[i].app->name}});
        results[i] = evaluate_point(spec, *jobs[i].app, *jobs[i].point, cache,
                                    designed_store_hits);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    wsp.set_attr({"jobs", claimed});
  };
  run_workers(spec.threads, jobs.size(), worker);
  if (designed_store_hits > 0) {
    obs::add_counter("explore.designed.store_hits", designed_store_hits);
  }

  // Rethrow the first failure in job order (deterministic, like the
  // serial loop would have).
  for (const auto& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }

  sweep_report report;
  report.results = std::move(results);
  report.horizon = spec.horizon;
  report.seed = spec.seed;
  const auto stats_after = cache.stats();
  report.phase1_simulations =
      stats_after.trace_misses - stats_before.trace_misses;
  report.designed_store_hits = designed_store_hits;
  // Per-app cache activity for THIS sweep: delta against the pre-sweep
  // per-app totals, reported in spec order (deterministic; a shared cache
  // may carry counts from earlier sweeps).
  const auto by_app_after = cache.stats_by_app();
  report.cache.reserve(spec.apps.size());
  for (const auto& app : spec.apps) {
    trace_cache::cache_stats before;
    if (const auto it = by_app_before.find(app.name);
        it != by_app_before.end()) {
      before = it->second;
    }
    trace_cache::cache_stats after;
    if (const auto it = by_app_after.find(app.name);
        it != by_app_after.end()) {
      after = it->second;
    }
    app_cache_stats entry;
    entry.app_name = app.name;
    entry.trace_hits = after.trace_hits - before.trace_hits;
    entry.trace_misses = after.trace_misses - before.trace_misses;
    report.cache.push_back(std::move(entry));
  }
  if (spec.validate) {
    report.pareto = pareto_front(report.results);
  }
  return report;
}

sweep_report run_sweep(const sweep_spec& spec) {
  trace_cache cache;
  return run_sweep(spec, cache);
}

}  // namespace stx::explore
