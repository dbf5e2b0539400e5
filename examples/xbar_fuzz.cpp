// xbar-fuzz — randomized scenario fuzzing + differential verification of
// the full design flow.
//
// Campaign mode (the default): sample N random MPSoC scenarios, run the
// 4-phase flow on each, check every oracle invariant, greedily shrink any
// failure, and print a one-command reproduction for it:
//   $ ./xbar-fuzz --runs=50 --seed=1
//
// Reproduce one failure from its seed string:
//   $ ./xbar-fuzz --scenario='stxfuzz/v1 seed=42 ini=4 tgt=6 ...'
//
// Refresh the golden flow_report snapshots (see scripts/regen-goldens.sh):
//   $ ./xbar-fuzz --regen-goldens=tests/golden
//
// Exit codes: 0 all invariants held, 1 violations found, 2 bad usage.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli_common.h"
#include "explore/disk_store.h"
#include "gen/artifact.h"
#include "testkit/fuzz.h"
#include "testkit/golden.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

using namespace stx;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xbar-fuzz [options]\n"
      "  --runs=N            scenarios to fuzz (50)\n"
      "  --seed=N            campaign master seed (1)\n"
      "  --shrink=BOOL       minimize failing scenarios (true)\n"
      "  --json=FILE         write the machine-readable campaign report\n"
      "  --scenario=STR      run ONE scenario from its seed string and exit\n"
      "  --regen-goldens=DIR rewrite the golden flow_report snapshots\n"
      "  --latency-factor=F  oracle degradation bound factor (8.0)\n"
      "  --latency-slack=F   oracle degradation bound slack cycles (50)\n"
      "  --solver-check=BOOL cross-check bus counts against the generic\n"
      "                      MILP solver (true)\n"
      "  --cache-dir=DIR     persistent phase-1 trace store shared with\n"
      "                      xbargen / xbar-sweep / xbar-serve\n"
      "  --cache-max-bytes=N evict oldest-accessed store entries over\n"
      "                      this cap at open (0 = unlimited)\n"
      "  --trace-out=FILE    write a Chrome/Perfetto trace of the run\n"
      "  --metrics-out=FILE  write an stx-metrics/v1 counter snapshot\n");
}

const std::vector<std::string> kKnownFlags = {
    "runs",           "seed",          "shrink",       "json",
    "scenario",       "regen-goldens", "latency-factor",
    "latency-slack",  "solver-check",  "help",
    "cache-dir",      "cache-max-bytes", "trace-out", "metrics-out",
};

/// The optional persistent phase-1 cache behind --cache-dir; (nullptr
/// members) when the flag is absent.
struct fuzz_cache {
  std::shared_ptr<explore::kv_store> store;
  std::unique_ptr<explore::trace_cache> cache;

  explicit fuzz_cache(const flag_set& flags) {
    const auto dir = flags.get_string("cache-dir", "");
    if (dir.empty()) return;
    store = std::make_shared<explore::disk_store>(
        dir, cli::cache_max_bytes_flag(flags));
    cache = std::make_unique<explore::trace_cache>(store);
  }
};

testkit::oracle_options oracle_options_from(const flag_set& flags) {
  testkit::oracle_options oopts;
  oopts.latency_factor = flags.get_double("latency-factor", 8.0);
  oopts.latency_slack_cycles = flags.get_double("latency-slack", 50.0);
  oopts.solver_agreement = flags.get_bool("solver-check", true);
  return oopts;
}

void print_violations(const std::vector<testkit::violation>& vs) {
  for (const auto& v : vs) {
    std::printf("  %-16s %s\n", (v.invariant + ":").c_str(),
                v.detail.c_str());
  }
}

/// --scenario mode: one scenario, full oracle, loud verdict.
int run_one_scenario(const flag_set& flags) {
  const auto s = testkit::decode(flags.get_string("scenario", ""));
  std::printf("scenario : %s\n", testkit::encode(s).c_str());
  const fuzz_cache fc(flags);
  const auto violations = testkit::run_scenario(
      s, oracle_options_from(flags), nullptr, fc.cache.get());
  if (violations.empty()) {
    std::printf("verdict  : all oracle invariants held\n");
    return 0;
  }
  std::printf("verdict  : %zu violation(s)\n", violations.size());
  print_violations(violations);
  return 1;
}

/// --regen-goldens mode: rewrite every snapshot under DIR.
int regen_goldens(const flag_set& flags) {
  const auto dir = flags.get_string("regen-goldens", "tests/golden");
  std::vector<gen::artifact> artifacts;
  for (const auto& name : testkit::golden_apps()) {
    std::printf("running golden flow: %s ...\n", name.c_str());
    const auto report = testkit::golden_report(name);
    gen::artifact art;
    art.backend = "json";
    art.filename = testkit::golden_filename(name);
    art.content = testkit::golden_json(report);
    artifacts.push_back(std::move(art));
  }
  const auto paths = gen::write_artifacts(artifacts, dir);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::printf("wrote %s (%zu bytes)\n", paths[i].c_str(),
                artifacts[i].content.size());
  }
  return 0;
}

int run_campaign(const flag_set& flags) {
  // Parse every flag up front: a malformed value is bad usage (exit 2),
  // never to be confused with a campaign that found violations (exit 1).
  testkit::fuzz_options opts;
  std::string json_path;
  try {
    opts.runs = static_cast<int>(flags.get_int("runs", 50));
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    opts.shrink = flags.get_bool("shrink", true);
    opts.oracle = oracle_options_from(flags);
    json_path = flags.get_string("json", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-fuzz: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }
  if (opts.runs <= 0) {
    std::fprintf(stderr, "xbar-fuzz: --runs must be positive\n");
    return 2;
  }
  const fuzz_cache fc(flags);
  opts.cache = fc.cache.get();

  // Campaign mode always collects the metrics registry so the v2 report
  // can break oracle cost down per invariant (the --trace-out /
  // --metrics-out handling in main may have turned collection on already).
  if (!obs::enabled()) {
    obs::reset();
    obs::enable();
  }

  const auto report = testkit::run_fuzz(
      opts, [](int k, const testkit::scenario& s, bool failed) {
        if (failed) {
          std::printf("run %3d: FAIL %s\n", k, testkit::encode(s).c_str());
        } else if ((k + 1) % 10 == 0) {
          std::printf("run %3d: ok (last: %s)\n", k, s.name().c_str());
        }
      });

  for (const auto& f : report.failures) {
    std::printf("\nFAILURE\n");
    std::printf("  sampled : %s\n", testkit::encode(f.original).c_str());
    print_violations(f.violations);
    std::printf("  shrunk  : %s (%d shrink attempts)\n",
                testkit::encode(f.shrunk).c_str(), f.shrink_attempts);
    print_violations(f.shrunk_violations);
    std::printf("  repro   : xbar-fuzz --scenario='%s'\n",
                testkit::encode(f.shrunk).c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "xbar-fuzz: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << testkit::render_json(report);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (fc.cache != nullptr) {
    const auto cs = fc.cache->stats();
    std::printf("persistent cache: %lld of %lld phase-1 collection(s) "
                "served from the store\n",
                static_cast<long long>(cs.trace_store_hits),
                static_cast<long long>(cs.trace_store_hits +
                                       cs.trace_misses));
  }

  std::printf(
      "\nxbar-fuzz: %d runs, %zu failure(s), seed %llu "
      "(%lld packets simulated on clean runs)\n",
      report.runs, report.failures.size(),
      static_cast<unsigned long long>(report.seed),
      static_cast<long long>(report.total_packets));
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Progress lines must reach redirected logs (CI) as they happen, not
  // in one block-buffered burst at exit.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const flag_set flags(argc, argv);
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (report_unknown_flags(flags, kKnownFlags, "xbar-fuzz") > 0) {
    print_usage(stderr);
    return 2;
  }
  try {
    const cli::obs_output obs_out(flags);
    int rc;
    if (flags.has("scenario")) {
      rc = run_one_scenario(flags);
    } else if (flags.has("regen-goldens")) {
      rc = regen_goldens(flags);
    } else {
      rc = run_campaign(flags);
    }
    // Exit 1 is "campaign found violations", still a completed run whose
    // telemetry is worth keeping; only bad usage (2) skips the write.
    if (rc != 2) obs_out.finish();
    return rc;
  } catch (const flag_error& e) {
    std::fprintf(stderr, "xbar-fuzz: %s\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-fuzz: %s\n", e.what());
    return flags.has("scenario") ? 2 : 1;
  }
}
