// Randomized design-flow scenarios: the fuzzing counterpart of the
// hand-built apps in src/workloads/.
//
// A scenario is a small, fully explicit parameter record that expands
// into an MPSoC application (make_app) plus the flow options to design it
// with (make_flow_options). Sampling covers shapes far beyond
// workloads::make_synthetic — asymmetric initiator/target counts,
// hot-spot targets, per-scenario burst geometry, critical streams — while
// every scenario round-trips through a one-line string (encode/decode),
// so any failure the fuzzer finds reproduces from a single copy-pastable
// token.
#pragma once

#include <string>

#include "traffic/trace.h"
#include "util/random.h"
#include "workloads/app.h"
#include "xbar/flow.h"

namespace stx::testkit {

/// One fuzzing scenario. Every field is explicit (not derived from the
/// seed at decode time) so the shrinker can mutate fields independently
/// and the mutated scenario still encodes/decodes losslessly.
struct scenario {
  /// Simulator seed and the stream used to sample per-core traffic mixes.
  std::uint64_t seed = 1;

  // ---- Application shape.
  int num_initiators = 4;
  int num_targets = 4;
  traffic::cycle_t burst_cycles = 400;  ///< approx busy cycles per burst
  int packet_cells = 8;                 ///< cells per packet in a burst
  traffic::cycle_t gap_cycles = 1200;   ///< idle span between bursts
  double phase_spread = 0.25;           ///< [0,1] burst phase stagger
  double read_fraction = 0.25;          ///< [0,1] probability a packet reads
  /// Probability a packet is redirected to the hot-spot target instead of
  /// the core's home target (0 disables the hot spot).
  double hotspot_fraction = 0.0;
  int hotspot_target = 0;
  /// The first `critical_cores` initiators mark their home-stream
  /// accesses critical (real-time), exercising the Sec. 7.3 path.
  int critical_cores = 0;

  // ---- Design-flow knobs.
  traffic::cycle_t window_size = 400;
  double overlap_threshold = 0.30;
  int max_targets_per_bus = 4;
  traffic::cycle_t horizon = 30'000;

  bool operator==(const scenario&) const = default;

  /// Shape/range validation; throws stx::invalid_argument_error.
  void validate() const;

  /// Short display label, e.g. "fuzz-4x6-s42".
  std::string name() const;

  /// Expands into the application model. Deterministic in the scenario
  /// fields alone (the per-core traffic mix is drawn from rng(seed)).
  workloads::app_spec make_app() const;

  /// The flow options this scenario is designed with.
  xbar::flow_options make_flow_options() const;
};

/// Samples one scenario from `r`. All fields, including the simulator
/// seed, are drawn from the generator, so a fuzzing campaign is fully
/// reproducible from its master seed.
scenario sample_scenario(rng& r);

/// One-line reproduction string, e.g.
/// "stxfuzz/v1 seed=42 ini=4 tgt=6 burst=400 ... horizon=30000".
/// decode(encode(s)) == s holds exactly (doubles use %.17g).
std::string encode(const scenario& s);

/// Parses an encode() string. Unknown magic, unknown keys, malformed
/// values or out-of-range fields throw stx::invalid_argument_error;
/// omitted keys keep their default values.
scenario decode(const std::string& line);

}  // namespace stx::testkit
