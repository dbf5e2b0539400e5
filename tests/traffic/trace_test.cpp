// Unit tests for traffic traces.
#include "traffic/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"
#include "util/random.h"

namespace stx::traffic {
namespace {

TEST(Trace, ConstructionAndDimensions) {
  trace t(4, 3, 1000);
  EXPECT_EQ(t.num_targets(), 4);
  EXPECT_EQ(t.num_initiators(), 3);
  EXPECT_EQ(t.horizon(), 1000);
  EXPECT_TRUE(t.empty());
}

TEST(Trace, AddValidatesIds) {
  trace t(2, 2, 100);
  EXPECT_THROW(t.add({5, 0, 0, 10, false}), invalid_argument_error);
  EXPECT_THROW(t.add({0, 7, 0, 10, false}), invalid_argument_error);
  EXPECT_THROW(t.add({0, 0, 10, 10, false}), invalid_argument_error);
  EXPECT_THROW(t.add({0, 0, -1, 10, false}), invalid_argument_error);
  t.add({0, 0, 0, 10, false});
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, HorizonGrowsWithEvents) {
  trace t(1, 1, 50);
  t.add({0, 0, 40, 120, false});
  EXPECT_EQ(t.horizon(), 120);
}

TEST(Trace, ExtendHorizonNeverShrinks) {
  trace t(1, 1, 100);
  t.extend_horizon(50);
  EXPECT_EQ(t.horizon(), 100);
  t.extend_horizon(300);
  EXPECT_EQ(t.horizon(), 300);
}

TEST(Trace, BusyIntervalsMergeAdjacentAndOverlapping) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 10, 20, false});   // adjacent: merges
  t.add({0, 0, 30, 50, false});
  t.add({0, 0, 40, 60, false});   // overlapping: merges
  t.add({1, 0, 5, 7, false});     // different target: untouched
  const auto iv = t.busy_intervals(0);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0].first, 0);
  EXPECT_EQ(iv[0].second, 20);
  EXPECT_EQ(iv[1].first, 30);
  EXPECT_EQ(iv[1].second, 60);
}

TEST(Trace, BusyIntervalsCriticalOnly) {
  trace t(1, 1, 100);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 20, 30, true});
  const auto all = t.busy_intervals(0);
  const auto crit = t.busy_intervals(0, /*critical_only=*/true);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_EQ(crit[0].first, 20);
}

TEST(Trace, BusyIntervalsByTargetMatchesPerTargetScans) {
  // Random overlapping, adjacent, duplicate and critical events, added
  // out of order: the one-pass grouping must agree with busy_intervals
  // for every target, with and without critical_only.
  rng r(42);
  trace t(5, 3, 0);
  for (int k = 0; k < 400; ++k) {
    const cycle_t begin = r.uniform_int(0, 2000);
    t.add({static_cast<int>(r.uniform_int(0, 3)),
           static_cast<int>(r.uniform_int(0, 2)), begin,
           begin + r.uniform_int(1, 40), r.chance(0.2)});
  }
  const auto by_target = t.busy_intervals_by_target();
  ASSERT_EQ(by_target.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(by_target[static_cast<std::size_t>(i)].all,
              t.busy_intervals(i))
        << i;
    EXPECT_EQ(by_target[static_cast<std::size_t>(i)].critical,
              t.busy_intervals(i, /*critical_only=*/true))
        << i;
  }
  EXPECT_TRUE(by_target[4].all.empty());  // a target with no events
}

TEST(Trace, TotalBusyPerTarget) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 5, 15, false});  // overlap merged: total 15, not 20
  t.add({1, 0, 0, 4, false});
  const auto busy = t.total_busy_per_target();
  EXPECT_EQ(busy[0], 15);
  EXPECT_EQ(busy[1], 4);
}

TEST(Trace, TargetHasCritical) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, true});
  t.add({1, 0, 0, 10, false});
  EXPECT_TRUE(t.target_has_critical(0));
  EXPECT_FALSE(t.target_has_critical(1));
}

TEST(Trace, SaveLoadRoundTrip) {
  trace t(3, 2, 500);
  t.add({0, 1, 10, 20, false});
  t.add({2, 0, 30, 45, true});
  std::stringstream buffer;
  t.save(buffer);
  const auto loaded = trace::load(buffer);
  EXPECT_EQ(loaded.num_targets(), 3);
  EXPECT_EQ(loaded.num_initiators(), 2);
  EXPECT_EQ(loaded.horizon(), 500);
  ASSERT_EQ(loaded.events().size(), 2u);
  EXPECT_EQ(loaded.events()[1].target, 2);
  EXPECT_EQ(loaded.events()[1].begin, 30);
  EXPECT_TRUE(loaded.events()[1].critical);
  EXPECT_FALSE(loaded.events()[0].critical);
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream buffer("not a trace at all");
  EXPECT_THROW(trace::load(buffer), invalid_argument_error);
}

TEST(Trace, LoadRejectsTruncated) {
  trace t(1, 1, 100);
  t.add({0, 0, 0, 10, false});
  std::stringstream buffer;
  t.save(buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(trace::load(half), invalid_argument_error);
}

TEST(Trace, BusyIntervalsRejectsBadTarget) {
  trace t(1, 1, 10);
  EXPECT_THROW(t.busy_intervals(3), invalid_argument_error);
}

}  // namespace
}  // namespace stx::traffic
