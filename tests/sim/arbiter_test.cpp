// Unit tests for arbitration policies.
#include "sim/arbiter.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace stx::sim {
namespace {

port_mask mask(const std::vector<bool>& bits) {
  port_mask m(static_cast<int>(bits.size()));
  for (std::size_t p = 0; p < bits.size(); ++p) {
    if (bits[p]) m.set(static_cast<int>(p));
  }
  return m;
}

TEST(Arbiter, FixedPriorityPicksLowestIndex) {
  auto a = make_arbiter(arbitration::fixed_priority, 4);
  EXPECT_EQ(a->pick(mask({false, true, true, false}), 0), 1);
  EXPECT_EQ(a->pick(mask({false, true, true, false}), 1), 1);  // no rotation
  EXPECT_EQ(a->pick(mask({true, true, true, true}), 2), 0);
}

TEST(Arbiter, NoRequestsReturnsMinusOne) {
  for (auto policy :
       {arbitration::fixed_priority, arbitration::round_robin,
        arbitration::least_recently_granted}) {
    auto a = make_arbiter(policy, 3);
    EXPECT_EQ(a->pick(mask({false, false, false}), 0), -1);
  }
}

TEST(Arbiter, RoundRobinRotatesThroughRequesters) {
  auto a = make_arbiter(arbitration::round_robin, 3);
  const auto all = mask({true, true, true});
  EXPECT_EQ(a->pick(all, 0), 0);
  EXPECT_EQ(a->pick(all, 1), 1);
  EXPECT_EQ(a->pick(all, 2), 2);
  EXPECT_EQ(a->pick(all, 3), 0);  // wraps
}

TEST(Arbiter, RoundRobinSkipsIdlePorts) {
  auto a = make_arbiter(arbitration::round_robin, 4);
  EXPECT_EQ(a->pick(mask({true, false, true, false}), 0), 0);
  EXPECT_EQ(a->pick(mask({true, false, true, false}), 1), 2);
  EXPECT_EQ(a->pick(mask({true, false, true, false}), 2), 0);
}

TEST(Arbiter, RoundRobinIsWorkConserving) {
  auto a = make_arbiter(arbitration::round_robin, 3);
  EXPECT_EQ(a->pick(mask({false, false, true}), 0), 2);
  EXPECT_EQ(a->pick(mask({true, false, false}), 1), 0);
}

TEST(Arbiter, LeastRecentlyGrantedPrefersLongestWait) {
  auto a = make_arbiter(arbitration::least_recently_granted, 3);
  const auto all = mask({true, true, true});
  EXPECT_EQ(a->pick(all, 0), 0);  // all tied: lowest index
  EXPECT_EQ(a->pick(all, 1), 1);  // 0 just granted
  EXPECT_EQ(a->pick(all, 2), 2);
  EXPECT_EQ(a->pick(all, 3), 0);  // 0 waited longest now
  // Port 1 sits out a few grants, then has priority over port 2.
  EXPECT_EQ(a->pick(mask({false, true, true}), 4), 1);
}

TEST(Arbiter, FairnessUnderSaturation) {
  // Round robin: after N*k picks with all ports requesting, every port
  // granted exactly k times.
  auto a = make_arbiter(arbitration::round_robin, 4);
  std::vector<int> grants(4, 0);
  const auto all = mask(std::vector<bool>(4, true));
  for (int i = 0; i < 400; ++i) {
    ++grants[static_cast<std::size_t>(a->pick(all, i))];
  }
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(Arbiter, PortMaskSpansWordBoundaries) {
  port_mask m(150);
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.first_from(0), -1);
  for (const int p : {3, 64, 130}) m.set(p);
  m.set(64);  // idempotent
  EXPECT_EQ(m.first_from(0), 3);
  EXPECT_EQ(m.first_from(4), 64);
  EXPECT_EQ(m.first_from(65), 130);
  EXPECT_EQ(m.first_from(131), -1);
  EXPECT_EQ(m.first_from(150), -1);
  m.reset(3);
  m.reset(3);  // idempotent
  m.reset(64);
  EXPECT_TRUE(m.any());
  EXPECT_EQ(m.first_from(0), 130);
  m.reset(130);
  EXPECT_FALSE(m.any());
  EXPECT_THROW(m.set(150), invalid_argument_error);
}

TEST(Arbiter, PoliciesAgreeAcrossWideMasks) {
  // 130 ports: grants must follow the same rules past the first word.
  std::vector<bool> bits(130, false);
  bits[5] = bits[70] = bits[129] = true;
  auto rr = make_arbiter(arbitration::round_robin, 130);
  EXPECT_EQ(rr->pick(mask(bits), 0), 5);
  EXPECT_EQ(rr->pick(mask(bits), 1), 70);
  EXPECT_EQ(rr->pick(mask(bits), 2), 129);
  EXPECT_EQ(rr->pick(mask(bits), 3), 5);  // wraps across all words
  auto fp = make_arbiter(arbitration::fixed_priority, 130);
  bits[5] = false;
  EXPECT_EQ(fp->pick(mask(bits), 0), 70);
  auto lrg = make_arbiter(arbitration::least_recently_granted, 130);
  EXPECT_EQ(lrg->pick(mask(bits), 0), 70);
  EXPECT_EQ(lrg->pick(mask(bits), 1), 129);
  EXPECT_EQ(lrg->pick(mask(bits), 2), 70);
}

TEST(Arbiter, FactoryRejectsZeroPorts) {
  EXPECT_THROW(make_arbiter(arbitration::round_robin, 0),
               invalid_argument_error);
}

TEST(Arbiter, PolicyNames) {
  EXPECT_STREQ(to_string(arbitration::fixed_priority), "fixed_priority");
  EXPECT_STREQ(to_string(arbitration::round_robin), "round_robin");
  EXPECT_STREQ(to_string(arbitration::least_recently_granted),
               "least_recently_granted");
}

}  // namespace
}  // namespace stx::sim
