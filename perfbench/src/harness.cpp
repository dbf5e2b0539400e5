#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::uint64_t seed_stream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int fixed_op_count(const config& cfg, double nominal_ops_per_s, int min_ops) {
  const auto n = std::llround(cfg.seconds * nominal_ops_per_s);
  return std::max<int>(min_ops, static_cast<int>(n));
}

// ---------------------------------------------------------------------
// Spans.

tracer::scope::scope(tracer& t, std::string name, std::string bucket,
                     std::int64_t op)
    : t_(t), index_(static_cast<int>(t.spans_.size())) {
  span_record s;
  s.name = std::move(name);
  s.bucket = std::move(bucket);
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.op = op;
  t.open_.push_back(index_);
  t.spans_.push_back(std::move(s));
  t_.spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

tracer::scope::~scope() {
  t_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  t_.open_.pop_back();
}

namespace {

/// Where an obs span's self time goes: the flow stages by name, the
/// simulator runs by the stage they run under (a run outside any flow
/// stage is the full-crossbar reference the trace cache computes), and
/// everything else to its parent's bucket.
std::string obs_bucket(const std::string& name,
                       const std::string& parent_bucket) {
  static const std::map<std::string, std::string> by_name = {
      {"flow.collect", "sim.collect"},
      {"flow.analyze", "traffic.analyze"},
      {"flow.synthesize", "xbar.synthesize"},
      {"flow.validate", "sim.validate_designed"},
      {"flow.validate_batch", "sim.validate_designed"},
      {"flow.generate", "gen.generate"},
      {"explore.sweep", "explore"},
      {"explore.worker", "explore"},
      {"explore.point", "explore"},
      {"serve.request", "serve"},
  };
  if (const auto it = by_name.find(name); it != by_name.end()) {
    return it->second;
  }
  const bool under_sim = parent_bucket.rfind("sim.", 0) == 0;
  if (name == "sim.run" && !under_sim) return "sim.validate_full";
  if (name == "sim.batch.run" && !under_sim) return "sim.validate_designed";
  return parent_bucket.empty() ? "bench" : parent_bucket;
}

}  // namespace

int tracer::import_obs(const std::vector<stx::obs::trace_event>& events,
                       std::int64_t origin_ns, std::int64_t op,
                       bool same_thread_as_bench) {
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.depth < y.depth;
  });
  // Candidate benchmark parents: this op's own spans.
  std::vector<int> bench;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].thread == 0 && spans_[i].op == op) {
      bench.push_back(static_cast<int>(i));
    }
  }
  int tid = -1;
  int orphans = 0;
  std::vector<int> stack;
  for (const auto k : order) {
    const auto& ev = events[k];
    if (ev.tid != tid) {
      tid = ev.tid;
      stack.clear();
    }
    while (static_cast<int>(stack.size()) > ev.depth) stack.pop_back();
    span_record s;
    s.name = ev.name;
    s.start_ns = origin_ns + ev.start_ns;
    s.end_ns = s.start_ns + ev.dur_ns;
    s.op = op;
    s.thread = ev.tid + 1;
    if (!stack.empty()) {
      s.parent = stack.back();
    } else if (same_thread_as_bench) {
      const auto mid = s.start_ns + ev.dur_ns / 2;
      // Nested spans start later, so the latest start is the innermost.
      for (const int b : bench) {
        const auto& c = spans_[static_cast<std::size_t>(b)];
        const bool inner =
            s.parent < 0 ||
            c.start_ns >= spans_[static_cast<std::size_t>(s.parent)].start_ns;
        if (c.start_ns <= mid && mid <= c.end_ns && inner) s.parent = b;
      }
      if (s.parent < 0) ++orphans;
    }
    const std::string parent_bucket =
        s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].bucket;
    s.bucket = obs_bucket(s.name, parent_bucket);
    stack.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(s));
  }
  return orphans;
}

void tracer::append(tracer&& other) {
  const int base = static_cast<int>(spans_.size());
  for (auto& s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  other.spans_.clear();
}

std::map<std::string, std::int64_t> self_ns_by_bucket(
    const std::vector<span_record>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].bucket] += self[i];
  }
  return out;
}

std::int64_t root_ns(const std::vector<span_record>& spans,
                     const std::string& name) {
  std::int64_t total = 0;
  for (const auto& s : spans) {
    if (s.parent < 0 && s.name == name) total += s.end_ns - s.start_ns;
  }
  return total;
}

void write_spans(const std::vector<span_record>& spans,
                 const std::string& path) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"bucket\":\""
        << s.bucket << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"thread\":" << s.thread << "}\n";
  }
}

std::int64_t reset_obs() {
  // The first reset frees the recorded events, which takes long enough to
  // blur the origin estimate; the second, on empty buffers, is quick.
  stx::obs::reset();
  const auto before = now_ns();
  stx::obs::reset();
  const auto after = now_ns();
  return before + (after - before) / 2;
}

// ---------------------------------------------------------------------
// Work counters.

std::map<std::string, std::int64_t> work_from_obs(
    const stx::obs::metrics_snapshot& snap) {
  const auto c = [&](const char* name) { return snap.counter(name); };
  return {
      {"sim.runs", c("sim.runs") + c("sim.batch.instances")},
      {"sim.events",
       c("sim.events_processed") + c("sim.batch.events_processed")},
      {"xbar.nodes",
       c("xbar.synth.feasibility_nodes") + c("xbar.synth.binding_nodes")},
      {"xbar.probes", c("xbar.synth.probes")},
      {"explore.points", c("explore.points")},
      {"explore.cache_hits",
       c("explore.cache.trace_hits") + c("explore.cache.full_hits") +
           c("explore.cache.trace_store_hits") +
           c("explore.cache.full_store_hits")},
      {"explore.cache_misses",
       c("explore.cache.trace_misses") + c("explore.cache.full_misses")},
      {"store.hits", c("store.disk.hits") + c("store.mem.hits")},
      {"store.puts", c("store.disk.puts") + c("store.mem.puts")},
  };
}

// ---------------------------------------------------------------------
// Outcome.

void outcome::check(bool ok, const std::string& what) {
  if (!ok && failures.size() < 20) failures.push_back(what);
}

void record_quality(const std::vector<stx::xbar::flow_report>& reports,
                    outcome& out) {
  double full = 0.0;
  double designed = 0.0;
  // Summed in sorted order, so the mean does not depend on the order the
  // seed gave the designs.
  std::vector<double> latencies;
  for (const auto& r : reports) {
    full += r.full_buses;
    designed += r.designed_buses;
    latencies.push_back(r.designed.avg_latency);
  }
  std::sort(latencies.begin(), latencies.end());
  double latency = 0.0;
  for (const double l : latencies) latency += l;
  out.bus_savings_x = designed > 0.0 ? full / designed : 0.0;
  out.designed_latency_cycles =
      reports.empty() ? 0.0 : latency / static_cast<double>(reports.size());
}

void record_layers(const std::map<std::string, std::int64_t>& self_ns,
                   double ops, double untraced_op_ms,
                   std::int64_t events_total, outcome& out) {
  const auto per_op_ms = [&](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-6 / ops;
  };
  std::int64_t total = 0;
  std::int64_t sim = 0;
  for (const auto& [bucket, ns] : self_ns) {
    // A stage bucket ("sim.collect") reports as "sim.collect_ms", a
    // layer's remaining self time ("explore") as "explore.self_ms".
    const bool stage = bucket.find('.') != std::string::npos;
    out.layer[stage ? bucket + "_ms" : bucket + ".self_ms"] = per_op_ms(ns);
    total += ns;
    if (bucket.rfind("sim.", 0) == 0) sim += ns;
  }
  const double traced_op_ms = per_op_ms(total);
  out.layer["trace.op_ms"] = traced_op_ms;
  out.layer["trace.untraced_op_ms"] = untraced_op_ms;
  out.layer["trace.overhead_pct"] =
      untraced_op_ms > 0.0 ? 100.0 * (traced_op_ms / untraced_op_ms - 1.0)
                           : 0.0;
  out.layer["sim.ns_per_event"] =
      events_total > 0 ? static_cast<double>(sim) /
                             static_cast<double>(events_total)
                       : 0.0;
}

}  // namespace perfbench
