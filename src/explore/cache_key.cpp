#include "explore/cache_key.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/error.h"

namespace stx::explore {

namespace {

/// Characters that would break the one-line space-separated k=v wire
/// form; everything else passes through verbatim so keys stay readable.
bool needs_escape(char c) {
  return c == '%' || c == ' ' || c == '=' || c == '\n' || c == '\r' ||
         c == '\t';
}

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (needs_escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::string unescape(const std::string& enc) {
  std::string out;
  out.reserve(enc.size());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    if (enc[i] != '%') {
      out += enc[i];
      continue;
    }
    STX_REQUIRE(i + 2 < enc.size(), "stxkey: truncated %-escape");
    const int hi = hex_digit(enc[i + 1]);
    const int lo = hex_digit(enc[i + 2]);
    STX_REQUIRE(hi >= 0 && lo >= 0, "stxkey: malformed %-escape");
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::int64_t parse_int(const std::string& v, const std::string& field) {
  char* end = nullptr;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  STX_REQUIRE(end != nullptr && *end == '\0' && !v.empty(),
              "stxkey: malformed integer in " + field);
  return static_cast<std::int64_t>(out);
}

std::uint64_t parse_uint(const std::string& v, const std::string& field) {
  char* end = nullptr;
  const unsigned long long out = std::strtoull(v.c_str(), &end, 10);
  STX_REQUIRE(end != nullptr && *end == '\0' && !v.empty(),
              "stxkey: malformed integer in " + field);
  return static_cast<std::uint64_t>(out);
}

double parse_double(const std::string& v, const std::string& field) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  STX_REQUIRE(end != nullptr && *end == '\0' && !v.empty(),
              "stxkey: malformed number in " + field);
  return out;
}

bool parse_bool(const std::string& v, const std::string& field) {
  if (v == "1") return true;
  if (v == "0") return false;
  throw invalid_argument_error("stxkey: malformed bool in " + field +
                               " (want 0 or 1)");
}

cache_key base_key(cache_stage stage, const std::string& app_id,
                   const xbar::flow_options& opts) {
  cache_key k;
  k.stage = stage;
  k.app = app_id;
  k.horizon = opts.horizon;
  k.seed = opts.seed;
  k.policy = static_cast<int>(opts.policy);
  k.transfer_overhead = opts.transfer_overhead;
  return k;
}

}  // namespace

const char* to_string(cache_stage s) {
  switch (s) {
    case cache_stage::trace:
      return "trace";
    case cache_stage::report:
      return "report";
    case cache_stage::metrics:
      return "metrics";
  }
  return "?";
}

cache_key trace_key(const std::string& app_id,
                    const xbar::flow_options& opts) {
  return base_key(cache_stage::trace, app_id, opts);
}

cache_key report_key(const std::string& app_id, const xbar::flow_options& opts,
                     bool validated) {
  auto k = base_key(cache_stage::report, app_id, opts);
  const auto& p = opts.synth.params;
  k.window_size = p.window_size;
  k.overlap_threshold = p.overlap_threshold;
  k.max_targets_per_bus = p.max_targets_per_bus;
  k.burst_window = p.burst_window;
  k.use_overlap_conflicts = p.use_overlap_conflicts;
  k.separate_critical = p.separate_critical;
  k.request_window = opts.request_window_override;
  k.response_window = opts.response_window_override;
  k.optimize_binding = opts.synth.optimize_binding;
  k.max_nodes = opts.synth.limits.max_nodes;
  k.time_limit_sec = opts.synth.limits.time_limit_sec;
  k.validated = validated;
  return k;
}

cache_key metrics_key(const std::string& app_id,
                      const xbar::flow_options& opts) {
  auto k = report_key(app_id, opts, /*validated=*/false);
  k.stage = cache_stage::metrics;
  return k;
}

std::string encode(const cache_key& key) {
  std::string out = "stxkey/v1";
  const auto field = [&out](const char* name, const std::string& v) {
    out += ' ';
    out += name;
    out += '=';
    out += v;
  };
  field("v", std::to_string(key.version));
  field("stage", to_string(key.stage));
  field("app", escape(key.app));
  field("horizon", std::to_string(key.horizon));
  field("seed", std::to_string(key.seed));
  field("policy", std::to_string(key.policy));
  field("overhead", std::to_string(key.transfer_overhead));
  if (key.stage == cache_stage::report || key.stage == cache_stage::metrics) {
    field("win", std::to_string(key.window_size));
    field("thr", fmt_double(key.overlap_threshold));
    field("maxtb", std::to_string(key.max_targets_per_bus));
    field("burstwin", std::to_string(key.burst_window));
    field("conflicts", key.use_overlap_conflicts ? "1" : "0");
    field("critical", key.separate_critical ? "1" : "0");
    field("reqwin", std::to_string(key.request_window));
    field("respwin", std::to_string(key.response_window));
    field("bindopt", key.optimize_binding ? "1" : "0");
    field("nodes", std::to_string(key.max_nodes));
    field("timelimit", fmt_double(key.time_limit_sec));
    field("validated", key.validated ? "1" : "0");
  }
  return out;
}

cache_key decode(const std::string& line) {
  // Split on single spaces; the magic token leads.
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const auto sp = line.find(' ', start);
    const auto end = sp == std::string::npos ? line.size() : sp;
    if (end > start) tokens.push_back(line.substr(start, end - start));
    if (sp == std::string::npos) break;
    start = sp + 1;
  }
  STX_REQUIRE(!tokens.empty() && tokens[0] == "stxkey/v1",
              "not an stxkey/v1 line");

  cache_key k;
  k.version = 0;  // must be supplied explicitly
  bool have_stage = false, have_app = false;
  std::vector<std::string> seen;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    STX_REQUIRE(eq != std::string::npos && eq > 0,
                "stxkey: malformed field '" + tokens[i] + "'");
    const auto name = tokens[i].substr(0, eq);
    const auto value = tokens[i].substr(eq + 1);
    for (const auto& s : seen) {
      STX_REQUIRE(s != name, "stxkey: duplicate field '" + name + "'");
    }
    seen.push_back(name);
    if (name == "v") {
      k.version = static_cast<int>(parse_int(value, name));
    } else if (name == "stage") {
      if (value == "trace") {
        k.stage = cache_stage::trace;
      } else if (value == "report") {
        k.stage = cache_stage::report;
      } else if (value == "metrics") {
        k.stage = cache_stage::metrics;
      } else {
        throw invalid_argument_error("stxkey: unknown stage '" + value + "'");
      }
      have_stage = true;
    } else if (name == "app") {
      k.app = unescape(value);
      have_app = true;
    } else if (name == "horizon") {
      k.horizon = parse_int(value, name);
    } else if (name == "seed") {
      k.seed = parse_uint(value, name);
    } else if (name == "policy") {
      k.policy = static_cast<int>(parse_int(value, name));
    } else if (name == "overhead") {
      k.transfer_overhead = parse_int(value, name);
    } else if (name == "win") {
      k.window_size = parse_int(value, name);
    } else if (name == "thr") {
      k.overlap_threshold = parse_double(value, name);
    } else if (name == "maxtb") {
      k.max_targets_per_bus = static_cast<int>(parse_int(value, name));
    } else if (name == "burstwin") {
      k.burst_window = parse_int(value, name);
    } else if (name == "conflicts") {
      k.use_overlap_conflicts = parse_bool(value, name);
    } else if (name == "critical") {
      k.separate_critical = parse_bool(value, name);
    } else if (name == "reqwin") {
      k.request_window = parse_int(value, name);
    } else if (name == "respwin") {
      k.response_window = parse_int(value, name);
    } else if (name == "bindopt") {
      k.optimize_binding = parse_bool(value, name);
    } else if (name == "nodes") {
      k.max_nodes = parse_int(value, name);
    } else if (name == "timelimit") {
      k.time_limit_sec = parse_double(value, name);
    } else if (name == "validated") {
      k.validated = parse_bool(value, name);
    } else {
      throw invalid_argument_error("stxkey: unknown field '" + name + "'");
    }
  }
  STX_REQUIRE(k.version != 0, "stxkey: missing v field");
  STX_REQUIRE(k.version == kCacheSchemaVersion,
              "stxkey: schema v" + std::to_string(k.version) +
                  " is not the current v" +
                  std::to_string(kCacheSchemaVersion));
  STX_REQUIRE(have_stage, "stxkey: missing stage field");
  STX_REQUIRE(have_app, "stxkey: missing app field");
  return k;
}

std::uint64_t hash64(const cache_key& key) {
  // FNV-1a, the offset-basis/prime constants of the 64-bit variant.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : encode(key)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hash_hex(const cache_key& key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash64(key));
  return buf;
}

}  // namespace stx::explore
