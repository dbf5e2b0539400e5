// Large synthetic fabrics for solver scaling (tests/xbar's big-fabric
// search pins).
//
// The paper's case studies top out at 15 targets; these fabrics give
// the binding search models an order of magnitude larger. A big_fabric is a NxM MPSoC with deliberately ASYMMETRIC traffic:
// per-initiator duty cycles spread over ~3x (heavy cores burst long and
// rest short, light cores the opposite), a seed-shuffled home-target
// permutation, and a small set of hot shared targets every core hits —
// so the Eq. 3-9 window constraints bind unevenly and the binding tree
// is deep instead of symmetric.
#pragma once

#include <cstdint>

#include "workloads/app.h"

namespace stx::workloads {

/// Geometry and traffic knobs. Every field participates in the app name.
struct big_fabric_params {
  int num_initiators = 32;
  int num_targets = 32;
  /// Shared hot targets (the first `hot_targets` target indices); every
  /// initiator redirects part of its traffic there. 0 disables.
  int hot_targets = 4;
  /// Fraction of burst packets redirected to a hot target.
  double hot_fraction = 0.2;
  sim::cycle_t burst_cycles = 600;   ///< busy cycles per MEDIAN burst
  int packet_cells = 16;             ///< cells per packet inside a burst
  sim::cycle_t gap_cycles = 1800;    ///< idle span after a MEDIAN burst
  double phase_spread = 0.21;        ///< [0,1] neighbour phase stagger
  double read_fraction = 0.25;       ///< [0,1] fraction of packets reading
  /// Spread of the per-initiator duty asymmetry: initiator weights run
  /// linearly over [1-s, 1+s] (burst scaled up, gap scaled down for
  /// heavy cores). 0 = uniform duty.
  double duty_spread = 0.5;
  /// Shuffles the home-target permutation (geometry seed, not the
  /// simulator seed).
  std::uint64_t seed = 1;

  /// Shape/range validation; throws stx::invalid_argument_error.
  void validate() const;
};

/// Builds the fabric. Deterministic in `params` alone.
app_spec make_big_fabric(const big_fabric_params& params = {});

/// The two bench reference geometries: 32x32 and 64x64 with the default
/// traffic knobs.
app_spec make_big_fabric_32();
app_spec make_big_fabric_64();

}  // namespace stx::workloads
