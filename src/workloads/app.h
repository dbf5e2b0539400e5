// Application specification: an MPSoC's cores, targets and programs.
#pragma once

#include <string>
#include <vector>

#include "sim/core.h"
#include "sim/session.h"
#include "sim/system.h"

namespace stx::workloads {

/// A complete benchmark application: the processor cores, the memory /
/// peripheral targets they talk to, and the traffic program of each core.
/// Builders in mpsoc_apps.h / synthetic.h produce these; `make_system`
/// instantiates a simulator around one.
struct app_spec {
  std::string name;
  int num_initiators = 0;
  int num_targets = 0;
  std::vector<std::string> target_names;
  std::vector<std::vector<sim::core_op>> programs;
  /// Optional per-core loop body start (ops before it run once as a
  /// prologue, e.g. phase offsets). Empty = every program loops whole.
  std::vector<std::size_t> loop_starts;

  /// Semantic roles (or -1 / empty when absent): used by examples and
  /// reporting; the synthesis itself never looks at roles.
  std::vector<int> private_mem;  ///< private memory target of each core
  int shared_mem = -1;
  int semaphore = -1;
  int interrupt_dev = -1;

  /// Total core count as the paper counts it (initiators + targets);
  /// also the full-crossbar bus count across both directions (Table 2).
  int total_cores() const { return num_initiators + num_targets; }

  /// Shape validation: program count, target ids, names. Throws on error.
  void validate() const;
};

/// Instantiates a simulator for `app` with the given crossbar configs.
/// `req`/`resp` bindings must match app.num_targets / app.num_initiators.
sim::mpsoc_system make_system(const app_spec& app,
                              const sim::crossbar_config& req,
                              const sim::crossbar_config& resp,
                              const sim::system_config& base = {});

/// Convenience: full crossbars on both directions (the collection run of
/// design-flow phase 1).
sim::mpsoc_system make_full_crossbar_system(
    const app_spec& app, const sim::system_config& base = {});

/// The unified sim-session entry point: builds a session around `app`
/// with the given crossbar configs and simulator knobs (arbitration,
/// overheads, seed — all carried by `base`). The design flow,
/// the exploration trace cache and the fuzz oracle all simulate through
/// this, so one semantic model serves every consumer.
sim::session make_session(const app_spec& app,
                          const sim::crossbar_config& req,
                          const sim::crossbar_config& resp,
                          const sim::system_config& base = {});

/// Full crossbars on both directions, as a session.
sim::session make_full_crossbar_session(const app_spec& app,
                                        const sim::system_config& base = {});

}  // namespace stx::workloads
