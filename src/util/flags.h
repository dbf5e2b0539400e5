// Minimal command-line flag parsing for examples and bench harnesses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace stx {

/// A supplied flag value that does not parse as the type asked for
/// (`--horizon=abc`, `--validate=maybe`). Every flag_set getter throws
/// this one type, so each CLI and bench maps it to its usage text and
/// exit code 2 in one catch, like an unknown flag — never to a runtime
/// failure (exit 1) or an uncaught exception (abort).
class flag_error : public invalid_argument_error {
 public:
  using invalid_argument_error::invalid_argument_error;
};

/// Parses `--name=value` / `--name value` / bare `--flag` arguments.
///
///     flag_set flags(argc, argv);
///     const auto seed = flags.get_int("seed", 42);
///     if (flags.has("verbose")) ...
///
/// Unrecognised positional arguments are kept in positional(). Lookup of a
/// flag that was supplied with a non-parsable value throws flag_error.
class flag_set {
 public:
  flag_set(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every value supplied for `name`, in command-line order — repeatable
  /// flags like `--grid win=... --grid thr=...` collect here, while the
  /// scalar getters above keep last-one-wins semantics.
  std::vector<std::string> get_list(const std::string& name) const;

  /// Names of every flag that was supplied, sorted. Drivers use this to
  /// reject unknown flags instead of silently ignoring them.
  std::vector<std::string> names() const;

 private:
  const std::string* find(const std::string& name) const;

  /// Every occurrence in command-line order — the single source of
  /// truth: scalar getters take the last occurrence, get_list all.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

/// Prints "<prog>: unknown flag --x" to stderr for every supplied flag
/// not in `known` and returns how many there were; drivers exit 2 (after
/// their usage text) when the count is non-zero. Shared by xbargen,
/// xbar-sweep and the flagged benches so the contract cannot drift.
int report_unknown_flags(const flag_set& flags,
                         const std::vector<std::string>& known,
                         const std::string& prog);

/// The entry point a flagged program shares: parses the command line and
/// runs `body(flags)`, returning its exit code. Bad usage exits 2 with
/// the known-flag list — an unknown flag before the body starts, a
/// malformed value (flag_error) wherever the body reads it — so a typo'd
/// flag neither falls back to a default nor escapes main and aborts.
template <typename Body>
int run_flagged_main(int argc, char** argv, const std::string& prog,
                     const std::vector<std::string>& known, Body&& body) {
  const flag_set flags(argc, argv);
  const auto usage = [&] {
    std::fprintf(stderr, "%s: known flags:", prog.c_str());
    for (const auto& k : known) std::fprintf(stderr, " --%s", k.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  };
  if (report_unknown_flags(flags, known, prog) > 0) return usage();
  try {
    return body(flags);
  } catch (const flag_error& e) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
    return usage();
  }
}

}  // namespace stx
