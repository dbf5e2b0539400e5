// serve_mixed: the design service's request path, in process and on one
// thread. Each request line is parsed (serve::parse_request), executed by
// serve::service::handle against a fresh disk cache directory, encoded
// (serve::serialize) and decoded as a client would (serve::parse_response).
// Setup pre-warms a fixed key set; the run then follows a seeded schedule
// with a fixed request count.
//
// One op is a round: one cold request of each kind (every serve app, once
// reusing a cached phase-1 trace through a new window and once needing a
// new trace through a new horizon: trace cache, synthesis, validation,
// fsync'd store puts), each among kColdEvery - 1 warm requests (store
// get, report decode, response encode), every fourth of which also asks
// for every artifact backend. The op's time is the sum of its requests'
// times, so every op carries the same mix.
//
// The socket server, its connection threads and the service's worker
// queue are left out: handing every request across threads made the
// round time follow the host's thread wake-up latency rather than the
// service's work.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "explore/cache_key.h"
#include "explore/codec.h"
#include "harness.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using namespace stx;

/// Nominal rounds per second on a 4-core x86 container (see
/// design_cold).
constexpr double kNominalRoundsPerS = 3.0;
constexpr int kColdEvery = 50;
constexpr int kArtifactsEvery = 4;

/// One design request of the schedule.
struct key {
  std::string app;
  std::int64_t horizon = 0;
  std::int64_t window = 0;
  bool artifacts = false;
  bool cold = false;
  int warm_index = -1;  ///< into the warm key set; -1 for cold keys
  /// What the request does: "cold:<app>:window" (reuses a cached trace),
  /// "cold:<app>:horizon" (needs a new one), "warm:<app>:<window>" or
  /// "warm:<app>:<window>:artifacts".
  std::string kind;

  std::string line(const std::string& id) const {
    std::string out = "{\"op\":\"design\",\"id\":\"" + id + "\",\"app\":\"" +
                      app + "\",\"horizon\":" + std::to_string(horizon) +
                      ",\"window\":" + std::to_string(window) +
                      ",\"threshold\":0.3,\"validate\":true";
    if (artifacts) out += ",\"artifacts\":[\"sv\",\"dot\",\"json\",\"report\"]";
    return out + "}";
  }

  /// The store key of this request's report (for the store timings).
  explore::cache_key report_key() const {
    xbar::flow_options opts;
    opts.horizon = horizon;
    opts.synth.params.window_size = window;
    opts.synth.params.overlap_threshold = 0.3;
    return explore::report_key(app, opts, true);
  }
};

std::vector<std::string> serve_apps(const config& cfg) {
  return cfg.tiny ? std::vector<std::string>{"mat1", "des"}
                  : std::vector<std::string>{"mat1", "mat2", "qsort", "des"};
}

std::int64_t serve_horizon(const config& cfg) {
  return cfg.tiny ? 20'000 : 120'000;
}

/// The fixed warm key set: every serve app at two window sizes.
std::vector<key> warm_keys(const config& cfg) {
  std::vector<key> out;
  for (const auto& app : serve_apps(cfg)) {
    for (const std::int64_t window : {300, 500}) {
      key k;
      k.app = app;
      k.horizon = serve_horizon(cfg);
      k.window = window;
      k.warm_index = static_cast<int>(out.size());
      out.push_back(k);
    }
  }
  return out;
}

/// Cold requests in a round: one of each kind.
std::size_t cold_kinds(const config& cfg) { return 2 * serve_apps(cfg).size(); }

std::size_t round_size(const config& cfg) {
  return cold_kinds(cfg) * kColdEvery;
}

/// The request schedule, `rounds` rounds long. Every round holds the same
/// requests: one cold key of each kind (keys never repeat) and an equal
/// share of every warm key, a fixed quarter of them asking for
/// artifacts. The seed orders the cold kinds and the warm requests within
/// each round.
std::vector<key> make_schedule(const config& cfg, const std::vector<key>& warm,
                               int rounds) {
  const auto apps = serve_apps(cfg);
  const auto kinds = cold_kinds(cfg);
  seed_stream rng(cfg.seed);
  std::vector<key> out;
  for (int r = 0; r < rounds; ++r) {
    std::vector<key> cold;
    for (std::size_t i = 0; i < kinds; ++i) {
      key k;
      k.app = apps[i % apps.size()];
      k.cold = true;
      const bool reuses_trace = i < apps.size();
      k.horizon = serve_horizon(cfg) + (reuses_trace ? 0 : 1 + r);
      // Reused-trace windows start above every warm key's window.
      k.window = reuses_trace ? 501 + r : 300;
      k.kind = "cold:" + k.app + (reuses_trace ? ":window" : ":horizon");
      cold.push_back(k);
    }
    rng.shuffle(cold);
    std::vector<key> filler;
    for (std::size_t i = 0; i < kinds * (kColdEvery - 1); ++i) {
      key k = warm[i % warm.size()];
      k.artifacts =
          (i / warm.size()) % kArtifactsEvery == kArtifactsEvery - 1;
      k.kind = "warm:" + k.app + ":" + std::to_string(k.window) +
               (k.artifacts ? ":artifacts" : "");
      filler.push_back(k);
    }
    rng.shuffle(filler);
    auto next_cold = cold.begin();
    auto next_warm = filler.begin();
    for (std::size_t j = 0; j < round_size(cfg); ++j) {
      if (j % kColdEvery == kColdEvery - 1) {
        out.push_back(*next_cold++);
        continue;
      }
      out.push_back(*next_warm++);
    }
  }
  return out;
}

/// The report document and the artifacts as they appear on the wire.
std::string wire_report(const std::string& line) {
  const auto begin = line.find(",\"report\":");
  if (begin == std::string::npos) return "";
  const auto end = line.find(",\"artifacts\":[", begin);
  return line.substr(begin, (end == std::string::npos ? line.size() - 1 : end) -
                                begin);
}

std::string wire_artifacts(const std::string& line) {
  const auto begin = line.find(",\"artifacts\":[");
  return begin == std::string::npos ? "" : line.substr(begin);
}

/// A service on its own cache directory and the pre-warmed key set.
struct stack {
  std::unique_ptr<serve::service> svc;
  std::vector<std::string> warm_reports;  ///< report bytes per warm key
  std::vector<xbar::flow_report> warm_parsed;
};

/// One request as the server would answer it, without the transport:
/// the response line.
std::string execute(serve::service& svc, const std::string& request) {
  return serve::serialize(svc.handle(serve::parse_request(request).design));
}

/// Setup: a fresh cache directory, the service, the pre-warmed key set,
/// then one untimed warm-up request.
std::unique_ptr<stack> start(const config& cfg, const std::vector<key>& warm,
                             int rep, outcome& out) {
  const auto dir = cfg.work_dir + "/rep" + std::to_string(rep);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto s = std::make_unique<stack>();
  serve::service::options so;
  so.workers = 1;  // the minimum; requests run on the caller
  so.cache_dir = dir + "/cache";
  s->svc = std::make_unique<serve::service>(so);
  // Without its warm keys the schedule cannot run: a failure here fails
  // the run.
  for (const auto& k : warm) {
    const auto line = execute(*s->svc, k.line("prewarm"));
    const auto resp = serve::parse_response(line);
    if (!resp.ok || !resp.report || resp.source != "computed") {
      throw std::runtime_error("prewarm of " + k.app + " failed: " +
                               resp.error);
    }
    s->warm_reports.push_back(wire_report(line));
    s->warm_parsed.push_back(*resp.report);
  }
  const auto resp =
      serve::parse_response(execute(*s->svc, warm.front().line("warm-up")));
  out.check(resp.ok && resp.source == "store", "warm-up request failed");
  return s;
}

/// What a run of schedule entries saw.
struct run_result {
  std::vector<double> request_ms;
  std::vector<double> round_ms;  ///< sum of request_ms over each round
  /// request_ms by request kind (key::kind).
  std::map<std::string, std::vector<double>> kind_ms;
  std::vector<double> exec_ms;
  std::vector<std::int64_t> bytes;
  std::int64_t artifact_bytes = 0;  ///< artifact content received
  std::int64_t passed = 0;
  std::int64_t computed = 0;  ///< responses with source "computed"
  std::vector<xbar::flow_report> cold_reports;
  /// Work counts from obs, summed over the traced rounds.
  std::map<std::string, std::int64_t> obs_work;
};

/// Runs schedule entries [from, to), whole rounds; with a tracer, each
/// round is traced as one op and its obs events are imported into it.
void run_requests(stack& s, const std::vector<key>& sched, std::size_t from,
                  std::size_t to, std::size_t round_len, tracer* t,
                  run_result& r, outcome& out) {
  using scope = tracer::scope;
  std::vector<std::string> ref_artifacts(s.warm_reports.size());
  double round = 0.0;
  std::int64_t origin = 0;
  for (std::size_t j = from; j < to; ++j) {
    const auto op = static_cast<std::int64_t>(j / round_len);
    if (t && j % round_len == 0) origin = reset_obs();
    const auto& k = sched[j];
    const auto request = k.line("r" + std::to_string(j));
    serve::design_response resp;
    std::string line;
    const auto t0 = now_ns();
    if (t) {
      scope root(*t, "serve request", "bench", op);
      serve::request req;
      {
        scope sp(*t, "serve::parse_request", "serve.protocol", op);
        req = serve::parse_request(request);
      }
      serve::design_response done;
      {
        scope sp(*t, "serve::service::handle", "serve", op);
        done = s.svc->handle(req.design);
      }
      {
        scope sp(*t, "serve::serialize", "serve.protocol", op);
        line = serve::serialize(done);
      }
      scope sp(*t, "serve::parse_response", "serve.decode", op);
      resp = serve::parse_response(line);
    } else {
      line = execute(*s.svc, request);
      resp = serve::parse_response(line);
    }
    r.request_ms.push_back(ms_between(t0, now_ns()));
    r.kind_ms[k.kind].push_back(r.request_ms.back());
    round += r.request_ms.back();
    if ((j + 1) % round_len == 0) {
      r.round_ms.push_back(round);
      round = 0.0;
      if (t) {
        out.check(t->import_obs(obs::trace_events(), origin, op,
                                /*same_thread_as_bench=*/true) == 0,
                  "a traced stage ran outside the request's spans");
        for (const auto& [name, v] : work_from_obs(obs::snapshot())) {
          r.obs_work[name] += v;
        }
      }
    }
    r.exec_ms.push_back(resp.elapsed_ms);
    r.bytes.push_back(static_cast<std::int64_t>(line.size()));
    r.computed += resp.source == "computed" ? 1 : 0;
    for (const auto& a : resp.artifacts) {
      r.artifact_bytes += static_cast<std::int64_t>(a.content.size());
    }

    bool ok = resp.ok && resp.report.has_value() &&
              resp.source == (k.cold ? "computed" : "store") &&
              resp.artifacts.size() == (k.artifacts ? 4u : 0u);
    if (ok && k.cold) {
      ok = resp.report->designed_buses > 0 &&
           resp.report->designed_buses <= resp.report->full_buses;
      r.cold_reports.push_back(*resp.report);
    } else if (ok) {
      const auto w = static_cast<std::size_t>(k.warm_index);
      ok = wire_report(line) == s.warm_reports[w];
      if (ok && k.artifacts) {
        if (ref_artifacts[w].empty()) ref_artifacts[w] = wire_artifacts(line);
        ok = wire_artifacts(line) == ref_artifacts[w];
      }
    }
    if (ok) {
      ++r.passed;
    } else {
      out.check(false, "request " + request + " -> " +
                           (resp.ok ? "wrong source or content" : resp.error));
    }
  }
}

/// The work counts the store keeps without obs.
std::map<std::string, std::int64_t> store_work(stack& s) {
  const auto kv = s.svc->store().stats();
  return {{"store.hits", kv.hits}, {"store.puts", kv.puts}};
}

}  // namespace

outcome run_serve_mixed(const config& cfg) {
  outcome out;
  // An even number of rounds, so a traced run times whole rounds in
  // either half.
  const int rounds =
      cfg.tiny ? 2
               : 2 * std::max(1, fixed_op_count(cfg, kNominalRoundsPerS, 0) / 2);
  const auto warm = warm_keys(cfg);
  const auto sched = make_schedule(cfg, warm, rounds);
  const auto round_len = round_size(cfg);
  std::unique_ptr<stack> s;
  const int reps = cfg.tiny ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    s.reset();  // the previous repetition's teardown is not setup
    const auto t0 = now_ns();
    s = start(cfg, warm, r, out);
    out.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const auto before = store_work(*s);

  const auto n = sched.size();
  const auto timed = cfg.trace ? n / 2 : n;
  run_result untraced;
  run_requests(*s, sched, 0, timed, round_len, nullptr, untraced, out);
  out.op_ms = untraced.round_ms;
  out.part_ms = untraced.kind_ms;
  run_result traced;
  tracer t;
  if (cfg.trace) {
    obs::enable();
    run_requests(*s, sched, timed, n, round_len, &t, traced, out);
    obs::disable();
  }

  std::vector<xbar::flow_report> reports = s->warm_parsed;
  for (const auto& [k, v] : store_work(*s)) out.work[k] = v - before.at(k);
  for (const auto* r : {&untraced, &traced}) {
    out.attempted += static_cast<std::int64_t>(r->request_ms.size());
    out.passed += r->passed;
    out.work["serve.requests"] +=
        static_cast<std::int64_t>(r->request_ms.size());
    out.work["serve.computed"] += r->computed;
    reports.insert(reports.end(), r->cold_reports.begin(),
                   r->cold_reports.end());
  }
  record_quality(reports, out);
  out.facts["requests"] = std::to_string(n);
  out.facts["round_requests"] = std::to_string(round_len);
  out.facts["warm_keys"] = std::to_string(warm.size());
  out.facts["cold_every"] = std::to_string(kColdEvery);
  if (!cfg.trace) return out;

  // Per-layer numbers of the traced half, per request.
  std::vector<double> warm_ms, cold_ms;
  for (std::size_t j = 0; j < traced.request_ms.size(); ++j) {
    (sched[timed + j].cold ? cold_ms : warm_ms).push_back(traced.request_ms[j]);
  }
  std::vector<double> bytes;
  for (const auto b : traced.bytes) bytes.push_back(static_cast<double>(b));
  out.spans = t.spans();
  const double ops = static_cast<double>(traced.request_ms.size());
  record_layers(self_ns_by_bucket(out.spans), ops, mean(untraced.request_ms),
                traced.obs_work.at("sim.events"), out);
  for (const auto& [name, value] : traced.obs_work) {
    out.layer[name] = static_cast<double>(value) / ops;
  }
  out.layer["serve.rtt_warm_ms"] = mean(warm_ms);
  out.layer["serve.rtt_cold_ms"] = mean(cold_ms);
  out.layer["serve.exec_ms"] = mean(traced.exec_ms);
  out.layer["serve.response_bytes"] = mean(bytes);
  out.layer["gen.bytes"] = static_cast<double>(traced.artifact_bytes) / ops;

  // The store layer on the workload's own report keys: get and decode
  // every warm key, and put each one's stored bytes back once.
  auto& store = s->svc->store();
  std::vector<double> get_ms, decode_ms, put_ms;
  for (int round = 0; round < 20; ++round) {
    for (const auto& k : warm) {
      const auto key = k.report_key();
      const auto& want = s->warm_parsed[static_cast<std::size_t>(k.warm_index)];
      auto t0 = now_ns();
      const auto blob = store.get(key);
      get_ms.push_back(ms_between(t0, now_ns()));
      out.check(blob.has_value(), "warm report missing from the store");
      if (!blob) continue;
      t0 = now_ns();
      const auto rep = explore::decode_report(*blob);
      decode_ms.push_back(ms_between(t0, now_ns()));
      out.check(rep == want, "stored report decodes differently");
      if (round == 0) {
        t0 = now_ns();
        store.put(key, *blob);
        put_ms.push_back(ms_between(t0, now_ns()));
      }
    }
  }
  out.layer["store.get_ms"] = mean(get_ms);
  out.layer["store.decode_ms"] = mean(decode_ms);
  out.layer["store.put_ms"] = mean(put_ms);
  return out;
}

}  // namespace perfbench
