// Event-queue and event-kernel edge cases: deterministic ordering of
// simultaneous wakes, calendar ring wraps and overflow, zero-length
// horizons, events at horizon-1, and re-arming components that are
// already queued.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/system.h"
#include "util/error.h"
#include "util/random.h"

namespace stx::sim {
namespace {

TEST(EventQueue, PopsInCycleMajorOrder) {
  event_queue q;
  q.push({30, phase_core, 0});
  q.push({10, phase_response_bus, 5});
  q.push({20, phase_target, 1});
  EXPECT_EQ(q.pop().cycle, 10);
  EXPECT_EQ(q.pop().cycle, 20);
  EXPECT_EQ(q.pop().cycle, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousWakesOrderByPhaseThenComponent) {
  // Same cycle: the polling loop's sweep order (cores, request buses,
  // targets, response buses), then component id as the stable tie-break.
  event_queue q;
  q.push({5, phase_target, 2});
  q.push({5, phase_core, 3});
  q.push({5, phase_core, 1});
  q.push({5, phase_response_bus, 0});
  q.push({5, phase_request_bus, 4});
  std::vector<event_key> popped;
  while (!q.empty()) popped.push_back(q.pop());
  ASSERT_EQ(popped.size(), 5u);
  EXPECT_EQ(popped[0], (event_key{5, phase_core, 1}));
  EXPECT_EQ(popped[1], (event_key{5, phase_core, 3}));
  EXPECT_EQ(popped[2], (event_key{5, phase_request_bus, 4}));
  EXPECT_EQ(popped[3], (event_key{5, phase_target, 2}));
  EXPECT_EQ(popped[4], (event_key{5, phase_response_bus, 0}));
}

TEST(EventQueue, RandomKeysAlwaysPopSorted) {
  // Cycles span several ring turns, so keys land in ring buckets and in
  // the overflow heap alike.
  rng r(99);
  event_queue q;
  std::vector<event_key> keys;
  for (int i = 0; i < 500; ++i) {
    event_key k{r.uniform_int(0, 5 * event_queue::ring_size),
                static_cast<int>(r.uniform_int(0, 3)),
                static_cast<int>(r.uniform_int(0, 7))};
    keys.push_back(k);
    q.push(k);
  }
  EXPECT_EQ(q.size(), keys.size());
  EXPECT_EQ(q.total_pushed(), 500);
  std::sort(keys.begin(), keys.end());
  for (const auto& expected : keys) EXPECT_EQ(q.pop(), expected);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DuplicateKeysAreLegal) {
  event_queue q;
  q.push({7, phase_core, 0});
  q.push({7, phase_core, 0});
  EXPECT_EQ(q.pop(), q.pop());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RejectsEmptyPopsAndPushesBehindTheDrain) {
  event_queue q(100);
  EXPECT_THROW(q.pop(), invalid_argument_error);
  EXPECT_THROW(q.push({99, phase_core, 0}), invalid_argument_error);
  q.push({100, phase_core, 0});
  q.push({150, phase_core, 0});
  EXPECT_EQ(q.pop().cycle, 100);
  EXPECT_EQ(q.pop().cycle, 150);
  EXPECT_THROW(q.push({149, phase_core, 0}), invalid_argument_error);
  EXPECT_THROW(q.push({150, phase_core, -1}), invalid_argument_error);
  EXPECT_THROW(q.pop(), invalid_argument_error);
}

TEST(EventQueue, WakeFartherThanTheRingGoesThroughOverflow) {
  // A wake ring_size or more cycles ahead cannot share the ring with
  // nearer wakes; it must still pop at its own cycle, after everything
  // nearer and before everything later, including keys pushed into the
  // same bucket slot once the drain has moved close enough.
  constexpr cycle_t ring = event_queue::ring_size;
  event_queue q;
  q.push({0, phase_core, 0});
  q.push({3 * ring + 5, phase_target, 1});
  q.push({ring, phase_core, 2});
  q.push({ring - 1, phase_core, 3});
  EXPECT_EQ(q.pop(), (event_key{0, phase_core, 0}));
  EXPECT_EQ(q.pop(), (event_key{ring - 1, phase_core, 3}));
  EXPECT_EQ(q.pop(), (event_key{ring, phase_core, 2}));
  // The drain is at cycle `ring`: keys at the far cycle still go to
  // overflow. Once the drain is within ring_size of it, a key at the
  // same cycle lands in the ring, and both sources merge in key order.
  q.push({3 * ring + 5, phase_core, 9});
  q.push({2 * ring + 10, phase_response_bus, 0});
  EXPECT_EQ(q.pop(), (event_key{2 * ring + 10, phase_response_bus, 0}));
  q.push({3 * ring + 5, phase_request_bus, 4});  // now a ring key
  EXPECT_EQ(q.pop(), (event_key{3 * ring + 5, phase_core, 9}));
  EXPECT_EQ(q.pop(), (event_key{3 * ring + 5, phase_request_bus, 4}));
  EXPECT_EQ(q.pop(), (event_key{3 * ring + 5, phase_target, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, WakesPushedDuringADrainKeepPhaseComponentOrder) {
  // The engine pushes wakes at the cycle it is draining (a request
  // enqueued wakes its bus, a delivery wakes its target). They must
  // merge with the rest of the cycle in (phase, component) order.
  event_queue q;
  q.push({10, phase_target, 2});
  q.push({10, phase_core, 0});
  q.push({10, phase_response_bus, 3});
  EXPECT_EQ(q.pop(), (event_key{10, phase_core, 0}));
  q.push({10, phase_request_bus, 1});
  q.push({10, phase_core, 5});
  q.push({11, phase_core, 0});
  EXPECT_EQ(q.pop(), (event_key{10, phase_core, 5}));
  EXPECT_EQ(q.pop(), (event_key{10, phase_request_bus, 1}));
  q.push({10, phase_target, 0});
  EXPECT_EQ(q.pop(), (event_key{10, phase_target, 0}));
  EXPECT_EQ(q.pop(), (event_key{10, phase_target, 2}));
  EXPECT_EQ(q.pop(), (event_key{10, phase_response_bus, 3}));
  EXPECT_EQ(q.pop(), (event_key{11, phase_core, 0}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushesAndPopsMatchASortedReference) {
  // The engine's access pattern: pops interleaved with pushes at or after
  // the popped cycle — mostly near, sometimes past the ring, sometimes at
  // the drain cycle itself. Every pop must return the reference minimum.
  rng r(7);
  event_queue q;
  std::vector<event_key> ref;
  cycle_t drain = 0;
  const auto push = [&](const event_key& k) {
    q.push(k);
    ref.push_back(k);
    std::push_heap(ref.begin(), ref.end(), std::greater<>());
  };
  for (int step = 0; step < 20'000; ++step) {
    if (ref.empty() || r.uniform_int(0, 2) != 0) {
      const auto pick = r.uniform_int(0, 9);
      const cycle_t ahead =
          pick == 0   ? r.uniform_int(event_queue::ring_size,
                                      4 * event_queue::ring_size)
          : pick == 1 ? 0
                      : r.uniform_int(0, 40);
      push({drain + ahead, static_cast<int>(r.uniform_int(0, 3)),
            static_cast<int>(r.uniform_int(0, 15))});
    } else {
      std::pop_heap(ref.begin(), ref.end(), std::greater<>());
      const auto expected = ref.back();
      ref.pop_back();
      ASSERT_EQ(q.pop(), expected) << "step " << step;
      drain = expected.cycle;
    }
  }
  EXPECT_EQ(q.size(), ref.size());
}

// ---- Engine-level edge cases, driven through mpsoc_system.

core_op read_op(int target, int cells) {
  core_op op;
  op.op = core_op::kind::read;
  op.target = target;
  op.cells = cells;
  return op;
}

core_op compute_op(cycle_t cycles) {
  core_op op;
  op.op = core_op::kind::compute;
  op.cycles = cycles;
  return op;
}

system_config event_config(int n) {
  system_config cfg;
  cfg.request = crossbar_config::full(n);
  cfg.response = crossbar_config::full(n);
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(EventKernel, ZeroLengthHorizonIsANoOp) {
  auto cfg = event_config(1);
  mpsoc_system sys({{read_op(0, 4)}}, 1, cfg);
  sys.run(0);
  EXPECT_EQ(sys.now(), 0);
  EXPECT_EQ(sys.total_transactions(), 0);
  EXPECT_EQ(sys.event_stats().events_processed, 0);
  // Re-running to the same horizon is also a no-op.
  sys.run(50);
  const auto t = sys.total_transactions();
  const auto processed = sys.event_stats().events_processed;
  sys.run(50);
  EXPECT_EQ(sys.total_transactions(), t);
  EXPECT_EQ(sys.event_stats().events_processed, processed);
}

TEST(EventKernel, EventsAtHorizonMinusOneAreProcessed) {
  // A 1-cell read with zero overheads round-trips quickly; run once to
  // the full horizon and once stopping at EVERY intermediate cycle: a
  // horizon-edge bug (events at h-1 dropped or double-run) would make
  // the segmented run diverge from the single-shot run.
  auto cfg = event_config(2);
  cfg.request.transfer_overhead = 0;
  cfg.response.transfer_overhead = 0;
  cfg.target.service_latency = 0;
  const std::vector<std::vector<core_op>> progs = {{read_op(0, 1)},
                                                   {read_op(1, 1)}};
  mpsoc_system whole(progs, 2, cfg);
  whole.run(100);
  mpsoc_system evt(progs, 2, cfg);
  for (cycle_t h = 1; h <= 100; ++h) evt.run(h);  // every split point
  EXPECT_GT(whole.total_transactions(), 0);
  EXPECT_EQ(whole.total_transactions(), evt.total_transactions());
  EXPECT_TRUE(whole.request_trace() == evt.request_trace());
  EXPECT_TRUE(whole.response_trace() == evt.response_trace());
  EXPECT_EQ(whole.packet_latency().count(), evt.packet_latency().count());
  EXPECT_DOUBLE_EQ(whole.packet_latency().sum(), evt.packet_latency().sum());
}

TEST(EventKernel, ReArmingAQueuedComponentStepsItOncePerCycle) {
  // Three cores hammering the same target produce overlapping wake
  // causes (self re-arm + enqueue wakes + completion wakes) for the
  // shared bus. An enqueue that wakes the bus mid-transfer supersedes
  // the pending completion wake, whose queue key goes stale: the engine
  // must drop it at pop, not step the bus twice at the completion cycle.
  // Double-stepping would also desynchronise segmented runs, so compare
  // against a run split every 50 cycles.
  system_config cfg;
  cfg.request = crossbar_config::shared(1);
  cfg.response = crossbar_config::shared(3);
  cfg.core.compute_jitter = 0.0;
  const std::vector<std::vector<core_op>> progs = {
      {read_op(0, 2)}, {read_op(0, 3)}, {compute_op(1), read_op(0, 1)}};
  mpsoc_system evt(progs, 1, cfg);
  evt.run(2000);
  EXPECT_GT(evt.event_stats().events_skipped, 0);
  EXPECT_GT(evt.total_transactions(), 0);

  mpsoc_system split(progs, 1, cfg);
  for (cycle_t h = 50; h <= 2000; h += 50) split.run(h);
  EXPECT_EQ(split.total_transactions(), evt.total_transactions());
  EXPECT_TRUE(split.request_trace() == evt.request_trace());
  EXPECT_DOUBLE_EQ(split.packet_latency().sum(), evt.packet_latency().sum());
}

TEST(EventKernel, IdleSpansAreActuallySkipped) {
  // 10k compute cycles between tiny transfers: the event kernel must
  // visit far fewer cycles than the horizon.
  auto cfg = event_config(1);
  mpsoc_system sys({{compute_op(10'000), read_op(0, 1)}}, 1, cfg);
  sys.run(100'000);
  EXPECT_GT(sys.total_transactions(), 5);
  EXPECT_LT(sys.event_stats().cycles_visited, 2'000);
}

TEST(EventKernel, ComputeLongerThanTheRingWakesOnTime) {
  // A compute op longer than the calendar ring parks its core's wake in
  // overflow; the core must still issue its read exactly when the
  // compute finishes (jitter is off).
  const cycle_t longer = 3 * event_queue::ring_size + 17;
  auto cfg = event_config(1);
  mpsoc_system sys({{compute_op(longer), read_op(0, 1)}}, 1, cfg);
  sys.run(longer + 100);
  ASSERT_FALSE(sys.request_trace().events().empty());
  EXPECT_EQ(sys.request_trace().events().front().begin, longer);
  EXPECT_EQ(sys.total_transactions(), 1);
}

TEST(EventKernel, SegmentsCutAcrossRingWrapsEqualOneLongRun) {
  // Cuts just before, at and after multiples of the ring size, one of
  // them inside a compute op that spans a wrap: every segment starts a
  // fresh calendar at a cycle whose bucket index wrapped, and the
  // resumed run must reproduce the single run exactly.
  constexpr cycle_t ring = event_queue::ring_size;
  system_config cfg;
  cfg.request = crossbar_config::shared(2);
  cfg.response = crossbar_config::shared(2);
  cfg.core.compute_jitter = 0.3;
  cfg.seed = 5;
  const std::vector<std::vector<core_op>> progs = {
      {compute_op(ring + 300), read_op(0, 3), compute_op(40), read_op(1, 2)},
      {read_op(1, 4), compute_op(7), read_op(0, 1)}};
  const cycle_t horizon = 5 * ring + 50;
  mpsoc_system whole(progs, 2, cfg);
  whole.run(horizon);
  mpsoc_system split(progs, 2, cfg);
  for (const cycle_t h : {ring - 1, ring, ring + 1, 2 * ring - 3, 2 * ring + 2,
                          3 * ring, 4 * ring + 511, horizon}) {
    split.run(h);
  }
  EXPECT_GT(whole.total_transactions(), 10);
  EXPECT_EQ(split.total_transactions(), whole.total_transactions());
  EXPECT_EQ(split.total_iterations(), whole.total_iterations());
  EXPECT_TRUE(split.request_trace() == whole.request_trace());
  EXPECT_TRUE(split.response_trace() == whole.response_trace());
  EXPECT_DOUBLE_EQ(split.packet_latency().sum(),
                   whole.packet_latency().sum());
  EXPECT_EQ(split.request_crossbar().bus_at(0).busy_cycles(),
            whole.request_crossbar().bus_at(0).busy_cycles());
}

TEST(EventKernel, StatsAccumulateAcrossSegments) {
  auto cfg = event_config(1);
  mpsoc_system sys({{read_op(0, 4)}}, 1, cfg);
  sys.run(500);
  const auto first = sys.event_stats().events_processed;
  EXPECT_GT(first, 0);
  sys.run(1000);
  EXPECT_GT(sys.event_stats().events_processed, first);
}

}  // namespace
}  // namespace stx::sim
