#include <gtest/gtest.h>

#include <limits>

#include "polyhedra/box.h"
#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre {
namespace {

TEST(IntBox, VolumeAndContains) {
  IntBox box = IntBox::from_upper_bounds({10, 20, 30});
  EXPECT_EQ(box.volume(), 6000);
  EXPECT_TRUE(box.contains(IntVec{1, 1, 1}));
  EXPECT_TRUE(box.contains(IntVec{10, 20, 30}));
  EXPECT_FALSE(box.contains(IntVec{0, 1, 1}));
  EXPECT_FALSE(box.contains(IntVec{1, 21, 1}));
  EXPECT_FALSE(box.contains(IntVec{1, 1}));
}

TEST(IntBox, NegativeLowerBounds) {
  IntBox box({Range{-4, 4}, Range{1, 16}});
  EXPECT_EQ(box.volume(), 9 * 16);
  EXPECT_TRUE(box.contains(IntVec{-4, 16}));
  EXPECT_FALSE(box.contains(IntVec{-5, 1}));
}

TEST(IntBox, TripCount) {
  EXPECT_EQ((Range{3, 3}).trip_count(), 1);
  EXPECT_EQ((Range{3, 2}).trip_count(), 0);
  EXPECT_EQ((Range{-2, 2}).trip_count(), 5);
}

TEST(IntBox, TripCountOverflowThrows) {
  // hi - lo + 1 does not fit in Int: the count throws instead of wrapping.
  constexpr Int kMax = std::numeric_limits<Int>::max();
  EXPECT_THROW((Range{-kMax, kMax}).trip_count(), OverflowError);
  EXPECT_THROW((Range{0, kMax}).trip_count(), OverflowError);
  EXPECT_EQ((Range{1, kMax}).trip_count(), kMax);
  EXPECT_THROW(IntBox({Range{0, kMax}}).volume(), OverflowError);
}

TEST(IntBox, Str) {
  EXPECT_EQ(IntBox::from_upper_bounds({2, 3}).str(), "[1,2] x [1,3]");
}

TEST(Scanner, VisitsLexicographically) {
  IntBox box = IntBox::from_upper_bounds({2, 2});
  std::vector<std::vector<Int>> visited;
  scan(box.to_constraints(), [&](const IntVec& p) { visited.push_back(p.to_vector()); });
  ASSERT_EQ(visited.size(), 4u);
  EXPECT_EQ(visited[0], (std::vector<Int>{1, 1}));
  EXPECT_EQ(visited[1], (std::vector<Int>{1, 2}));
  EXPECT_EQ(visited[2], (std::vector<Int>{2, 1}));
  EXPECT_EQ(visited[3], (std::vector<Int>{2, 2}));
}

TEST(Scanner, CountMatchesVolume) {
  IntBox box = IntBox::from_upper_bounds({7, 5, 3});
  EXPECT_EQ(count_points(box.to_constraints()), box.volume());
}

TEST(Scanner, LexicographicMin) {
  ConstraintSystem sys(2);
  sys.add_range(AffineExpr::variable(2, 0), 3, 5);
  sys.add_range(AffineExpr::variable(2, 1), -2, 2);
  FirstPointResult m = first_point(sys, /*step_budget=*/1000);
  EXPECT_TRUE(m.complete);
  ASSERT_TRUE(m.point.has_value());
  EXPECT_EQ(*m.point, (IntVec{3, -2}));
}

TEST(Scanner, LexicographicMinEmpty) {
  ConstraintSystem sys(1);
  sys.add(AffineExpr::variable(1, 0) - 5);
  sys.add(-AffineExpr::variable(1, 0) + 3);
  FirstPointResult m = first_point(sys, /*step_budget=*/1000);
  EXPECT_TRUE(m.complete);
  EXPECT_FALSE(m.point.has_value());
}

TEST(Scanner, SingleDimension) {
  ConstraintSystem sys(1);
  sys.add_range(AffineExpr::variable(1, 0), -1, 1);
  EXPECT_EQ(count_points(sys), 3);
}

}  // namespace
}  // namespace lmre
