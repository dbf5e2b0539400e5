// xbar-serve — the long-running design service daemon.
//
// Serve design requests over a local socket until a client sends the
// "shutdown" op or the process receives SIGTERM/SIGINT:
//   $ ./xbar-serve --socket=/tmp/xbar.sock --workers=4
//                  --cache-dir=/var/cache/stxbar
//
// One-shot client mode (send REQUEST, print the response line):
//   $ ./xbar-serve --socket=/tmp/xbar.sock
//       --client='{"op":"design","app":"mat2","horizon":20000}'
//
// The protocol is line-delimited JSON (see src/serve/protocol.h): ops
// design / ping / metrics / trace / shutdown. With --cache-dir, results
// are shared with every other binary pointed at the same directory
// (xbargen, xbar-sweep, xbar-fuzz): a design any of them computed is a
// warm hit here and vice versa.
//
// Shutdown semantics: SIGTERM/SIGINT triggers a graceful drain — stop
// accepting, close idle connections, give requests mid-dispatch up to
// --drain-ms to finish writing their response — then exits 0 after
// printing the final stats (and writing --metrics-out, when asked).
//
// Exit codes: 0 clean shutdown (daemon) or ok:true response (client),
// 1 runtime/protocol failure, 2 bad usage.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/json.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

using namespace stx;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xbar-serve --socket=PATH [options]\n"
      "  --socket=PATH     unix socket to listen on (or connect to,\n"
      "                    with --client); default ./xbar-serve.sock\n"
      "  --workers=N       design worker threads (2)\n"
      "  --queue=N         admission queue depth (64)\n"
      "  --cache-dir=DIR   persistent result store shared with the\n"
      "                    other CLIs (default: in-memory only)\n"
      "  --cache-max-bytes=N  evict oldest-accessed store entries over\n"
      "                    this cap (0 = unlimited)\n"
      "  --cache-sweep-ms=N   re-run the eviction sweep every N ms so a\n"
      "                    long-running daemon honors the cap between\n"
      "                    opens (0 = at open only)\n"
      "  --io-timeout-ms=N    per-connection socket read/write timeout\n"
      "                    (30000)\n"
      "  --idle-timeout-ms=N  reap connections idle this long (300000;\n"
      "                    0 = never)\n"
      "  --drain-ms=N      graceful-drain budget on SIGTERM/SIGINT:\n"
      "                    in-flight requests get this long to finish\n"
      "                    (5000)\n"
      "  --metrics-out=FILE   write the final stx-metrics/v1 snapshot\n"
      "                    here on shutdown\n"
      "  --client=REQUEST  send one JSON request line and print the\n"
      "                    response instead of serving\n"
      "  --retries=N       client mode: total attempts per request,\n"
      "                    with exponential backoff + jitter between\n"
      "                    them (1 = no retry)\n"
      "  --retry-backoff-ms=N  client mode: base backoff (50)\n");
}

const std::vector<std::string> kKnownFlags = {
    "socket",        "workers",        "queue",
    "cache-dir",     "cache-max-bytes", "cache-sweep-ms",
    "io-timeout-ms", "idle-timeout-ms", "drain-ms",
    "metrics-out",   "client",          "retries",
    "retry-backoff-ms", "help",
};

int run_client(const flag_set& flags, const std::string& socket_path,
               const std::string& line) {
  serve::retry_options retry;
  retry.attempts = static_cast<int>(flags.get_int("retries", 1));
  retry.base_backoff_ms =
      static_cast<int>(flags.get_int("retry-backoff-ms", 50));
  const auto resp = serve::request_line(socket_path, line, retry);
  std::printf("%s\n", resp.c_str());
  const auto doc = gen::json::parse(resp);
  return doc.at("ok").as_bool() ? 0 : 1;
}

/// Self-pipe for async-signal-safe shutdown: the handler writes one
/// byte; a watcher thread reads it and runs the drain on an ordinary
/// thread where locks and condition variables are allowed.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 's';
  // write() is async-signal-safe; the result only matters insofar as a
  // full pipe means a signal is already pending.
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

int run_daemon(const flag_set& flags, const std::string& socket_path) {
  serve::service::options sopts;
  sopts.workers = static_cast<int>(flags.get_int("workers", 2));
  sopts.queue_depth = static_cast<int>(flags.get_int("queue", 64));
  sopts.cache_dir = flags.get_string("cache-dir", "");
  const std::int64_t cache_cap = flags.get_int("cache-max-bytes", 0);
  const std::int64_t sweep_ms = flags.get_int("cache-sweep-ms", 0);
  if (cache_cap < 0 || sweep_ms < 0) {
    std::fprintf(stderr,
                 "xbar-serve: --cache-max-bytes/--cache-sweep-ms must be"
                 " >= 0\n");
    return 2;
  }
  sopts.cache_max_bytes = static_cast<std::uint64_t>(cache_cap);
  sopts.cache_sweep_ms = static_cast<int>(sweep_ms);

  serve::server::options wopts;
  wopts.io_timeout_ms = static_cast<int>(flags.get_int("io-timeout-ms", 30000));
  wopts.idle_timeout_ms =
      static_cast<int>(flags.get_int("idle-timeout-ms", 300000));
  const int drain_ms = static_cast<int>(flags.get_int("drain-ms", 5000));
  const auto metrics_out = flags.get_string("metrics-out", "");

  // The daemon always collects counters: the "metrics" op is the
  // service's health surface (cache hit/miss rates, queue rejections).
  obs::reset();
  obs::enable();

  serve::service svc(sopts);
  serve::server srv(svc, socket_path, wopts);
  srv.start();

  // Graceful SIGTERM/SIGINT: handler -> self-pipe -> watcher thread ->
  // drain (bounded) -> stop, which unblocks wait() below.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "xbar-serve: cannot create signal pipe\n");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_terminate_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  bool signalled = false;
  std::thread watcher([&] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) == 1) {
      if (byte != 's') return;  // main asked the watcher to exit
      signalled = true;
      const bool drained = srv.drain(drain_ms);
      std::fprintf(stderr, "xbar-serve: %s drain on signal\n",
                   drained ? "clean" : "timed-out");
      srv.stop();  // unblocks wait()
      return;
    }
  });

  std::printf("xbar-serve: listening on %s (%d workers, queue %d%s%s)\n",
              srv.socket_path().c_str(), sopts.workers, sopts.queue_depth,
              sopts.cache_dir.empty() ? "" : ", cache ",
              sopts.cache_dir.c_str());
  std::fflush(stdout);
  srv.wait();
  srv.stop();
  // Unblock the watcher if no signal ever arrived, then join it.
  const char quit = 'q';
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &quit, 1);
  watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::trunc);
    out << obs::render_metrics_json();
  }
  const auto st = svc.stats();
  std::printf(
      "xbar-serve: %s after %lld requests "
      "(%lld store hits, %lld coalesced, %lld rejected, %lld deadline-"
      "exceeded, %lld errors)\n",
      signalled ? "graceful shutdown (signal)" : "shutdown",
      static_cast<long long>(st.submitted),
      static_cast<long long>(st.store_hits),
      static_cast<long long>(st.coalesced),
      static_cast<long long>(st.rejected),
      static_cast<long long>(st.deadline_exceeded),
      static_cast<long long>(st.errors));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (report_unknown_flags(flags, kKnownFlags, "xbar-serve") > 0) {
    print_usage(stderr);
    return 2;
  }
  const auto socket_path = flags.get_string("socket", "./xbar-serve.sock");
  try {
    if (flags.has("client")) {
      return run_client(flags, socket_path, flags.get_string("client", ""));
    }
    return run_daemon(flags, socket_path);
  } catch (const flag_error& e) {
    std::fprintf(stderr, "xbar-serve: %s\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-serve: %s\n", e.what());
    return 1;
  }
}
