// Unit tests for the single-bus model.
#include "sim/bus.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace stx::sim {
namespace {

struct stepped_delivery {
  packet p;
  cycle_t begin = 0;
  cycle_t end = 0;
};

/// Steps the bus through [from, to) collecting deliveries.
std::vector<stepped_delivery> run_bus(bus& b, cycle_t from, cycle_t to) {
  std::vector<stepped_delivery> out;
  for (cycle_t now = from; now < to; ++now) {
    b.step(now, [&](const packet& p, cycle_t rb, cycle_t re) {
      out.push_back({p, rb, re});
    });
  }
  return out;
}

packet make_packet(int src, int dst, int cells, cycle_t issue) {
  packet p;
  p.source = src;
  p.dest = dst;
  p.cells = cells;
  p.issue = issue;
  return p;
}

TEST(Bus, SinglePacketLatencyIsOverheadPlusCells) {
  bus b(0, 2, arbitration::round_robin, /*overhead=*/2);
  b.enqueue(0, make_packet(0, 0, 4, 0));
  const auto dd = run_bus(b, 0, 20);
  ASSERT_EQ(dd.size(), 1u);
  EXPECT_EQ(dd[0].begin, 0);   // granted at cycle 0
  EXPECT_EQ(dd[0].end, 6);     // 2 overhead + 4 cells
  EXPECT_EQ(b.busy_cycles(), 6);
  EXPECT_EQ(b.delivered_packets(), 1);
}

TEST(Bus, ZeroOverheadSingleCell) {
  bus b(0, 1, arbitration::round_robin, 0);
  b.enqueue(0, make_packet(0, 0, 1, 0));
  const auto dd = run_bus(b, 0, 3);
  ASSERT_EQ(dd.size(), 1u);
  EXPECT_EQ(dd[0].end - dd[0].begin, 1);
  EXPECT_EQ(b.busy_cycles(), 1);
}

TEST(Bus, SerialisesCompetingPackets) {
  bus b(0, 2, arbitration::round_robin, 1);
  b.enqueue(0, make_packet(0, 0, 3, 0));
  b.enqueue(1, make_packet(1, 0, 3, 0));
  const auto dd = run_bus(b, 0, 30);
  ASSERT_EQ(dd.size(), 2u);
  // First transfer occupies [0,4), second [4,8): no overlap, no gap.
  EXPECT_EQ(dd[0].end, 4);
  EXPECT_EQ(dd[1].begin, 4);
  EXPECT_EQ(dd[1].end, 8);
  EXPECT_EQ(b.busy_cycles(), 8);
}

TEST(Bus, QueueDepthTracksBacklog) {
  bus b(0, 1, arbitration::round_robin, 0);
  b.enqueue(0, make_packet(0, 0, 10, 0));
  b.enqueue(0, make_packet(0, 0, 10, 0));
  b.enqueue(0, make_packet(0, 0, 10, 0));
  EXPECT_EQ(b.max_queue_depth(), 3);
  EXPECT_TRUE(b.has_backlog());
  run_bus(b, 0, 40);
  EXPECT_FALSE(b.has_backlog());
  EXPECT_TRUE(b.idle());
}

TEST(Bus, LatePacketWaitsForArbitration) {
  bus b(0, 2, arbitration::round_robin, 2);
  b.enqueue(0, make_packet(0, 0, 4, 0));
  std::vector<stepped_delivery> dd;
  for (cycle_t now = 0; now < 20; ++now) {
    if (now == 3) b.enqueue(1, make_packet(1, 0, 2, 3));
    b.step(now, [&](const packet& p, cycle_t rb, cycle_t re) {
      dd.push_back({p, rb, re});
    });
  }
  ASSERT_EQ(dd.size(), 2u);
  // First ends at 6; second granted at 6, ends at 10.
  EXPECT_EQ(dd[1].begin, 6);
  EXPECT_EQ(dd[1].end, 10);
}

TEST(Bus, DeliveryOrderWithinPortIsFifo) {
  bus b(0, 1, arbitration::round_robin, 0);
  for (int i = 0; i < 5; ++i) {
    auto p = make_packet(0, 0, 1, 0);
    p.txn = i;
    b.enqueue(0, p);
  }
  const auto dd = run_bus(b, 0, 10);
  ASSERT_EQ(dd.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dd[static_cast<std::size_t>(i)].p.txn, i);
  }
}

TEST(Bus, RejectsBadEnqueue) {
  bus b(0, 2, arbitration::round_robin, 0);
  EXPECT_THROW(b.enqueue(5, make_packet(0, 0, 1, 0)),
               invalid_argument_error);
  EXPECT_THROW(b.enqueue(0, make_packet(0, 0, 0, 0)),
               invalid_argument_error);
}

TEST(Bus, UtilisationIsFullUnderSaturation) {
  bus b(0, 1, arbitration::round_robin, 1);
  for (int i = 0; i < 10; ++i) b.enqueue(0, make_packet(0, 0, 4, 0));
  run_bus(b, 0, 50);  // 10 packets x 5 cycles each = 50 busy cycles
  EXPECT_EQ(b.busy_cycles(), 50);
  EXPECT_EQ(b.delivered_packets(), 10);
}

}  // namespace
}  // namespace stx::sim
