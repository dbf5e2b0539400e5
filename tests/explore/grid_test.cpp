// Grid expansion and CLI axis parsing.
#include "explore/grid.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace stx::explore {
namespace {

TEST(Grid, EmptyGridExpandsToTheSingleDefaultPoint) {
  const sweep_grid grid;
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.num_points(), 1u);
  const auto points = expand_grid(grid);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], sweep_point{});
}

TEST(Grid, CrossProductSizeIsTheAxisProduct) {
  sweep_grid grid;
  grid.window_sizes = {200, 400, 1000};
  grid.overlap_thresholds = {0.1, 0.3};
  grid.max_targets_per_bus = {0, 4};
  EXPECT_EQ(grid.num_points(), 12u);
  const auto points = expand_grid(grid);
  EXPECT_EQ(points.size(), 12u);
  // Window-major order, axis value order preserved.
  EXPECT_EQ(points[0].window_size, 200);
  EXPECT_DOUBLE_EQ(points[0].overlap_threshold, 0.1);
  EXPECT_EQ(points[0].max_targets_per_bus, 0);
  EXPECT_EQ(points[1].max_targets_per_bus, 4);
  EXPECT_EQ(points.back().window_size, 1000);
  EXPECT_DOUBLE_EQ(points.back().overlap_threshold, 0.3);
  // Unswept axes keep defaults everywhere.
  for (const auto& p : points) {
    EXPECT_EQ(p.policy, sim::arbitration::round_robin);
  }
}

TEST(Grid, DuplicateAxisValuesAreDeduplicated) {
  sweep_grid grid;
  grid.window_sizes = {400, 400, 800, 400};
  grid.overlap_thresholds = {0.3, 0.3};
  EXPECT_EQ(grid.num_points(), 8u);  // raw cross product
  const auto points = expand_grid(grid);
  ASSERT_EQ(points.size(), 2u);  // deduplicated, first occurrences kept
  EXPECT_EQ(points[0].window_size, 400);
  EXPECT_EQ(points[1].window_size, 800);
}

TEST(Grid, ParsesEveryAxisKey) {
  const auto grid = parse_grid({
      "win=200,400",
      "thr=0.1,0.5",
      "maxtb=0,4",
      "burstwin=1000",
      "policy=fixed,rr,lrg",
      "reqwin=100",
      "respwin=300",
  });
  EXPECT_EQ(grid.window_sizes, (std::vector<cycle_t>{200, 400}));
  EXPECT_EQ(grid.overlap_thresholds, (std::vector<double>{0.1, 0.5}));
  EXPECT_EQ(grid.max_targets_per_bus, (std::vector<int>{0, 4}));
  EXPECT_EQ(grid.burst_windows, (std::vector<cycle_t>{1000}));
  EXPECT_EQ(grid.policies,
            (std::vector<sim::arbitration>{
                sim::arbitration::fixed_priority,
                sim::arbitration::round_robin,
                sim::arbitration::least_recently_granted}));
  EXPECT_EQ(grid.request_windows, (std::vector<cycle_t>{100}));
  EXPECT_EQ(grid.response_windows, (std::vector<cycle_t>{300}));
}

TEST(Grid, RejectsUnknownKeysEmptyAxesAndBadValues) {
  sweep_grid grid;
  EXPECT_THROW(parse_grid_axis("windows=200", grid), invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("win=", grid), invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("win=,,", grid), invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("no-equals-sign", grid),
               invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("win=abc", grid), invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("win=-5", grid), invalid_argument_error);
  // Zero windows and out-of-range values must die at parse time, not
  // after the phase-1 simulation.
  EXPECT_THROW(parse_grid_axis("win=0", grid), invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("win=99999999999999999999", grid),
               invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("policy=banana", grid),
               invalid_argument_error);
  // One engine: there is no solver axis.
  EXPECT_THROW(parse_grid_axis("solver=specialized", grid),
               invalid_argument_error);
  EXPECT_THROW(parse_grid_axis("solver=milp", grid), invalid_argument_error);
  EXPECT_TRUE(grid.empty());  // failed parses never half-populate

  // 0 stays legal where it means "off" / "no override".
  sweep_grid zeros;
  EXPECT_NO_THROW(parse_grid_axis("maxtb=0", zeros));
  EXPECT_NO_THROW(parse_grid_axis("burstwin=0", zeros));
  EXPECT_NO_THROW(parse_grid_axis("reqwin=0", zeros));
  EXPECT_NO_THROW(parse_grid_axis("respwin=0", zeros));
}

TEST(Grid, UnknownKeyErrorListsTheValidKeys) {
  sweep_grid grid;
  try {
    parse_grid_axis("banana=1", grid);
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    for (const auto& key : grid_keys()) {
      EXPECT_NE(what.find(key), std::string::npos) << key;
    }
  }
}

TEST(Grid, PointToStringNamesTheKnobs) {
  sweep_point p;
  p.window_size = 1234;
  p.burst_window = 500;
  const auto s = p.to_string();
  EXPECT_NE(s.find("win=1234"), std::string::npos);
  EXPECT_NE(s.find("burstwin=500"), std::string::npos);
  EXPECT_EQ(s.find("solver"), std::string::npos);
}

}  // namespace
}  // namespace stx::explore
