// Shared pieces of the perfbench workloads: the run configuration, the
// per-workload outcome record, the benchmark's own span tracer and its
// reduction to per-layer self time, and the work counters read from the
// program's obs registry.
//
// The tracer only wraps calls the benchmark makes into the library's
// public functions. Stages that run inside those calls (run_sweep, the
// design service) are attributed from the obs spans the library already
// records; nothing here adds instrumentation to the library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "xbar/flow.h"

namespace perfbench {

/// Monotonic host time in nanoseconds (CLOCK_MONOTONIC, the clock the
/// obs registry and Python's time.monotonic_ns also read).
std::int64_t now_ns();

/// Milliseconds between two now_ns() readings.
double ms_between(std::int64_t start_ns, std::int64_t end_ns);

/// Arithmetic mean; 0 for an empty vector.
double mean(const std::vector<double>& v);

struct config {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Smoke-test size: short horizons and a handful of ops.
  bool tiny = false;
  /// Directory (relative to the working directory) for stores, sockets
  /// and the written trace; created and removed by the run.
  std::string work_dir = ".bench_build/perfbench/work";
};

/// Deterministic stream of 64-bit values from the workload seed
/// (splitmix64); the workloads draw their input orderings from it.
class seed_stream {
 public:
  explicit seed_stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  /// Fisher-Yates shuffle (portable, unlike std::shuffle).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Setup repetitions in a full-size run; setup_s takes the fastest, as
/// op_fast_ms does for parts.
inline constexpr int kSetupReps = 9;

/// Ops in a full-size run: `seconds` times the workload's nominal rate
/// (a constant, so the work done never depends on measured time).
int fixed_op_count(const config& cfg, double nominal_ops_per_s, int min_ops);

// ---------------------------------------------------------------------
// Spans.

/// One span of the benchmark trace. `bucket` is the per-layer key its
/// self time is charged to (e.g. "sim.collect", "bench").
struct span_record {
  std::string name;
  std::string bucket;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;       ///< index in the same trace; -1 = root
  std::int64_t op = -1;  ///< op id; -1 = not tied to one op
  int thread = 0;        ///< 0 = the benchmark's own thread(s), 1+ = obs tid+1
};

/// Records spans in memory. Not thread-safe: one tracer per thread,
/// merged with append() at the end.
class tracer {
 public:
  /// RAII span: opened at construction, closed at destruction, nested
  /// under the innermost open span of this tracer.
  class scope {
   public:
    scope(tracer& t, std::string name, std::string bucket, std::int64_t op);
    ~scope();
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer& t_;
    int index_;
  };

  /// Adds the obs trace events recorded since the obs clock origin
  /// `origin_ns` (a now_ns() reading). Events nest by per-thread depth;
  /// a top-level event on the benchmark's thread is attached to the
  /// innermost benchmark span that contains its midpoint, one on another
  /// thread becomes a root. Returns how many top-level events on the
  /// benchmark's thread found no benchmark span to nest under (0 when
  /// every stage ran inside a call the benchmark timed).
  int import_obs(const std::vector<stx::obs::trace_event>& events,
                 std::int64_t origin_ns, std::int64_t op,
                 bool same_thread_as_bench);

  /// Moves `other`'s spans into this trace (indices are rebased).
  void append(tracer&& other);

  const std::vector<span_record>& spans() const { return spans_; }

 private:
  std::vector<span_record> spans_;
  std::vector<int> open_;
};

/// Self time (span duration minus the part its children cover) summed
/// per bucket, in nanoseconds.
std::map<std::string, std::int64_t> self_ns_by_bucket(
    const std::vector<span_record>& spans);

/// Sum of the durations of root spans named `name`.
std::int64_t root_ns(const std::vector<span_record>& spans,
                     const std::string& name);

/// Writes one JSON object per span to `path`.
void write_spans(const std::vector<span_record>& spans,
                 const std::string& path);

/// obs::reset() and return the estimated obs clock origin in now_ns()
/// time (the reading halfway across a reset of already empty buffers).
std::int64_t reset_obs();

// ---------------------------------------------------------------------
// Work counters.

/// The deterministic work counts of the obs registry under the
/// benchmark's names (sim.runs, sim.events, xbar.nodes, ...).
std::map<std::string, std::int64_t> work_from_obs(
    const stx::obs::metrics_snapshot& snap);

// ---------------------------------------------------------------------
// Outcome.

/// What one workload run produced; main() turns it into metrics.
struct outcome {
  /// Host milliseconds of each timed (untraced) op.
  std::vector<double> op_ms;
  /// Host milliseconds of each timed part of those ops (one app's design,
  /// one request), by kind of part; empty when an op is not split.
  std::map<std::string, std::vector<double>> part_ms;
  /// One sample per setup repetition (each includes the warm-up op).
  std::vector<double> setup_s;
  std::int64_t attempted = 0;
  /// Ops that completed and passed their output check.
  std::int64_t passed = 0;
  /// Deterministic design quality over the distinct designs produced.
  double bus_savings_x = 0.0;
  double designed_latency_cycles = 0.0;
  /// Deterministic work counts.
  std::map<std::string, std::int64_t> work;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layer;
  /// Check failures, for the log.
  std::vector<std::string> failures;
  /// The benchmark trace (traced runs only).
  std::vector<span_record> spans;
  /// Workload facts for the record (op mix, grid size, ...).
  std::map<std::string, std::string> facts;

  void check(bool ok, const std::string& what);
};

/// Σ full-crossbar buses ÷ Σ designed buses, and the mean designed
/// packet latency, over `reports` (one per distinct design).
void record_quality(const std::vector<stx::xbar::flow_report>& reports,
                    outcome& out);

/// Fills the per-layer metrics every traced run shares: the per-op self
/// time of each bucket of `self_ns` (summed over `ops` traced ops; a
/// stage bucket "sim.collect" reports as "sim.collect_ms", a layer
/// bucket "explore" as "explore.self_ms"), the trace-overhead figures, and
/// sim.ns_per_event over the `events_total` simulator events those ops
/// processed.
void record_layers(const std::map<std::string, std::int64_t>& self_ns,
                   double ops, double untraced_op_ms,
                   std::int64_t events_total, outcome& out);

/// The workloads.
outcome run_design_cold(const config& cfg);
outcome run_sweep_synth(const config& cfg);
outcome run_serve_mixed(const config& cfg);

}  // namespace perfbench
