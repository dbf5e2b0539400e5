// stxperf: runs one perfbench workload in this process and prints its
// metrics. perfbench/run.py builds and spawns it; see perfbench/README.md.
//
//   stxperf --workload design_cold|sweep_synth|serve_mixed --seed N
//           --seconds S --trace 0|1 [--size full|tiny] [--spawn-ns NS]
//           [--commit ID] [--work-dir DIR]
//
// The last stdout line is {"correct","attempted","failed","metrics"};
// the line before it carries the host context, work counts and facts.
// Exit codes: 0 ran (even when a check failed: "correct" says so),
// 1 the workload threw, 2 bad usage.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "harness.h"

namespace {

using namespace perfbench;

struct metric_def {
  const char* name;
  const char* unit;
};

const std::vector<metric_def>& end_to_end_metrics() {
  static const std::vector<metric_def> defs = {
      {"op_fast_ms", "ms"},   {"ok_ratio", "ratio"},
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"bus_savings_x", "x"},   {"designed_latency_cycles", "cycles"},
  };
  return defs;
}

const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> defs = {
      {"sim.collect_ms", "ms"},
      {"sim.validate_designed_ms", "ms"},
      {"sim.validate_full_ms", "ms"},
      {"sim.runs", "count"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"traffic.analyze_ms", "ms"},
      {"xbar.synthesize_ms", "ms"},
      {"xbar.nodes", "count"},
      {"xbar.probes", "count"},
      {"gen.generate_ms", "ms"},
      {"gen.bytes", "bytes"},
      {"explore.self_ms", "ms"},
      {"explore.sweep_ms", "ms"},
      {"explore.points", "count"},
      {"explore.cache_hits", "count"},
      {"explore.cache_misses", "count"},
      {"store.get_ms", "ms"},
      {"store.put_ms", "ms"},
      {"store.decode_ms", "ms"},
      {"store.hits", "count"},
      {"store.puts", "count"},
      {"serve.self_ms", "ms"},
      {"serve.rtt_warm_ms", "ms"},
      {"serve.rtt_cold_ms", "ms"},
      {"serve.exec_ms", "ms"},
      {"serve.protocol_ms", "ms"},
      {"serve.decode_ms", "ms"},
      {"serve.response_bytes", "bytes"},
      {"bench.self_ms", "ms"},
      {"trace.op_ms", "ms"},
      {"trace.untraced_op_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "stxperf: %s\nusage: stxperf --workload design_cold|"
               "sweep_synth|serve_mixed --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--spawn-ns NS] [--commit ID] "
               "[--work-dir DIR]\n",
               why.c_str());
  return 2;
}

bool parse_int(const std::string& s, std::int64_t lo, std::int64_t hi,
               std::int64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  std::int64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The q-quantile (0 <= q <= 1) of `v`, interpolated linearly between
/// the two nearest ranks; 0 for an empty vector.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Host time of one op on an uncontended core: for each kind of part, its
/// fastest time over the run (host slowdowns only ever add time), times
/// how often the kind occurs per op. Without parts, the fastest op.
double op_fast_ms(const outcome& out) {
  if (out.op_ms.empty()) return 0.0;
  if (out.part_ms.empty()) return fastest(out.op_ms);
  double sum = 0.0;
  for (const auto& [kind, ms] : out.part_ms) {
    sum += static_cast<double>(ms.size()) * fastest(ms);
  }
  return sum / static_cast<double>(out.op_ms.size());
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct tail_info {
  double value = 0.0;
  double percentile = 100.0;
  std::int64_t beyond = 0;
};

/// The highest percentile with at least ten samples beyond it (the
/// maximum when a smoke run has fewer than eleven samples).
tail_info tail_latency(std::vector<double> v) {
  tail_info t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t beyond = n > 10 ? 10 : 0;
  t.value = v[static_cast<std::size_t>(n - 1 - beyond)];
  t.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  t.beyond = beyond;
  return t;
}

std::string metrics_json(const std::vector<metric_def>& defs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += json_string(defs[i].name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

template <typename Map, typename Fmt>
std::string object_json(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + fmt(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = now_ns();
  config cfg;
  std::string commit = "unknown";
  // now_ns() of the parent just before it spawned this process; 0 when
  // unknown (setup time then starts at main()).
  std::int64_t spawn_ns = 0;
  std::map<std::string, std::string> given;
  const std::vector<std::string> known = {"workload", "seed",     "seconds",
                                          "trace",    "size",     "spawn-ns",
                                          "commit",   "work-dir"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return usage("unexpected argument " + arg);
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage("--" + arg + " needs a value");
    }
    if (std::find(known.begin(), known.end(), arg) == known.end()) {
      return usage("unknown flag --" + arg);
    }
    if (!given.emplace(arg, value).second) {
      return usage("--" + arg + " given twice");
    }
  }
  for (const char* req : {"workload", "seed", "seconds", "trace"}) {
    if (!given.count(req)) return usage(std::string("missing --") + req);
  }
  static const std::map<std::string, std::function<outcome(const config&)>>
      workloads = {{"design_cold", run_design_cold},
                   {"sweep_synth", run_sweep_synth},
                   {"serve_mixed", run_serve_mixed}};
  std::int64_t v = 0;
  cfg.workload = given["workload"];
  if (!workloads.count(cfg.workload)) {
    return usage("unknown workload " + cfg.workload);
  }
  if (!parse_int(given["seed"], 0, INT64_MAX, &v)) return usage("bad --seed");
  cfg.seed = static_cast<std::uint64_t>(v);
  if (!parse_int(given["seconds"], 1, 3600, &v)) return usage("bad --seconds");
  cfg.seconds = static_cast<int>(v);
  if (!parse_int(given["trace"], 0, 1, &v)) return usage("bad --trace");
  cfg.trace = v == 1;
  if (given.count("size")) {
    if (given["size"] != "full" && given["size"] != "tiny") {
      return usage("bad --size");
    }
    cfg.tiny = given["size"] == "tiny";
  }
  if (given.count("spawn-ns")) {
    if (!parse_int(given["spawn-ns"], 0, INT64_MAX, &v)) {
      return usage("bad --spawn-ns");
    }
    spawn_ns = v;
  }
  if (given.count("commit")) commit = given["commit"];
  if (given.count("work-dir")) cfg.work_dir = given["work-dir"];
  const std::string out_root =
      std::filesystem::path(cfg.work_dir).parent_path().string();
  cfg.work_dir += "/" + cfg.workload + "-" + std::to_string(::getpid());

  outcome out;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    out = workloads.at(cfg.workload)(cfg);
    std::filesystem::remove_all(cfg.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stxperf: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    std::error_code ec;
    std::filesystem::remove_all(cfg.work_dir, ec);
    return 1;
  }

  const auto tail = tail_latency(out.op_ms);
  std::map<std::string, double> values;
  const double pre_main_s =
      spawn_ns > 0 ? ms_between(spawn_ns, main_ns) * 1e-3 : 0.0;
  if (cfg.trace) {
    values = out.layer;
  } else {
    values["op_fast_ms"] = op_fast_ms(out);
    values["setup_s"] = pre_main_s + fastest(out.setup_s);
    values["peak_rss_mb"] = peak_rss_mb();
    values["bus_savings_x"] = out.bus_savings_x;
    values["designed_latency_cycles"] = out.designed_latency_cycles;
  }
  const bool correct = out.failures.empty() && out.attempted > 0 &&
                       out.passed == out.attempted;
  values["ok_ratio"] =
      out.attempted > 0 ? static_cast<double>(out.passed) /
                              static_cast<double>(out.attempted)
                        : 0.0;

  std::ostringstream ctx;
  ctx << "{\"perfbench\": {\"workload\": " << json_string(cfg.workload)
      << ", \"seed\": " << cfg.seed << ", \"trace\": " << (cfg.trace ? 1 : 0)
      << ", \"size\": " << json_string(cfg.tiny ? "tiny" : "full")
      << ", \"host\": {\"usable_cores\": " << usable_cores()
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"commit\": " << json_string(commit) << "}"
      << ", \"ops\": " << out.op_ms.size()
      << ", \"op_ms\": {\"fast\": " << json_number(op_fast_ms(out))
      << ", \"p5\": " << json_number(quantile(out.op_ms, 0.05))
      << ", \"p10\": " << json_number(quantile(out.op_ms, 0.1))
      << ", \"p50\": " << json_number(median(out.op_ms))
      << ", \"mean\": " << json_number(mean(out.op_ms))
      << ", \"tail\": " << json_number(tail.value) << "}"
      << ", \"tail\": {\"percentile\": " << json_number(tail.percentile)
      << ", \"samples_beyond\": " << tail.beyond
      << ", \"samples\": " << out.op_ms.size() << "}"
      << ", \"setup_samples_s\": [";
  for (std::size_t i = 0; i < out.setup_s.size(); ++i) {
    ctx << (i ? ", " : "") << json_number(out.setup_s[i]);
  }
  ctx << "]"
      << ", \"pre_main_s\": " << json_number(pre_main_s)
      << ", \"bus_savings_x\": " << json_number(out.bus_savings_x)
      << ", \"designed_latency_cycles\": "
      << json_number(out.designed_latency_cycles) << ", \"work\": "
      << object_json(out.work,
                     [](std::int64_t x) { return std::to_string(x); })
      << ", \"facts\": " << object_json(out.facts, json_string)
      << ", \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    ctx << (i ? ", " : "") << json_string(out.failures[i]);
  }
  ctx << "]}}";

  const auto& defs = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << (out.attempted - out.passed)
         << ", \"metrics\": " << metrics_json(defs, values) << "}";

  // The record and the trace are written beside the work directory.
  const std::string stem = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                           "-trace" + std::to_string(cfg.trace ? 1 : 0);
  std::error_code ec;
  std::filesystem::create_directories(out_root + "/records", ec);
  std::ofstream(out_root + "/records/" + stem + ".json")
      << ctx.str() << "\n" << result.str() << "\n";
  if (cfg.trace) {
    std::filesystem::create_directories(out_root + "/traces", ec);
    write_spans(out.spans, out_root + "/traces/" + stem + ".spans.jsonl");
  }
  for (const auto& f : out.failures) {
    std::fprintf(stderr, "stxperf: check failed: %s\n", f.c_str());
  }
  std::printf("%s\n%s\n", ctx.str().c_str(), result.str().c_str());
  return 0;
}
