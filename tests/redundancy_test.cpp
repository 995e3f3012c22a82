#include <gtest/gtest.h>

#include <random>
#include <set>

#include "polyhedra/box.h"
#include "polyhedra/fourier_motzkin.h"
#include "polyhedra/scanner.h"

namespace lmre {
namespace {

TEST(Feasible, BasicCases) {
  ConstraintSystem sys(2);
  sys.add_range(AffineExpr::variable(2, 0), 1, 5);
  sys.add_range(AffineExpr::variable(2, 1), 1, 5);
  EXPECT_TRUE(rationally_feasible(sys));
  sys.add(AffineExpr::variable(2, 0) - 9);  // x >= 9 contradicts x <= 5
  EXPECT_FALSE(rationally_feasible(sys));
}

TEST(Feasible, GcdNormalizationTightensAtAddTime) {
  // 2x >= 1 and 2x <= 1 would be rationally feasible (x = 1/2), but
  // ConstraintSystem::add GCD-normalizes with a floor on the constant,
  // which is an integer tightening: the stored system is x >= 1 && x <= 0,
  // already infeasible.  Documented behavior of Constraint::normalized().
  ConstraintSystem sys(1);
  sys.add(AffineExpr(IntVec{2}, -1));
  sys.add(AffineExpr(IntVec{-2}, 1));
  EXPECT_FALSE(rationally_feasible(sys));
  EXPECT_EQ(count_points(sys), 0);
}

TEST(Redundancy, DropsImpliedBounds) {
  ConstraintSystem sys(1);
  sys.add(AffineExpr::variable(1, 0) - 1);   // x >= 1
  sys.add(AffineExpr::variable(1, 0) + 5);   // x >= -5  (implied)
  sys.add(-AffineExpr::variable(1, 0) + 9);  // x <= 9
  ConstraintSystem out = remove_redundant(sys);
  EXPECT_EQ(out.size(), 2u);
  // Same integer set.
  for (Int x = -10; x <= 15; ++x) {
    EXPECT_EQ(sys.contains(IntVec{x}), out.contains(IntVec{x})) << x;
  }
}

TEST(Redundancy, KeepsIrredundantSystems) {
  IntBox box = IntBox::from_upper_bounds({4, 7});
  ConstraintSystem sys = box.to_constraints();
  EXPECT_EQ(remove_redundant(sys).size(), sys.size());
}

TEST(Redundancy, DiagonalCutExample) {
  // Box plus the cut x + y <= 20 which a 4x7 box already satisfies.
  ConstraintSystem sys = IntBox::from_upper_bounds({4, 7}).to_constraints();
  sys.add(-(AffineExpr::variable(2, 0) + AffineExpr::variable(2, 1)) + 20);
  ConstraintSystem out = remove_redundant(sys);
  EXPECT_EQ(out.size(), 4u);
}

TEST(Redundancy, PreservesIntegerPointsRandomized) {
  std::mt19937 rng(71);
  std::uniform_int_distribution<Int> coef(-3, 3), cons(-2, 10);
  for (int iter = 0; iter < 40; ++iter) {
    ConstraintSystem sys(2);
    sys.add_range(AffineExpr::variable(2, 0), -3, 4);
    sys.add_range(AffineExpr::variable(2, 1), -3, 4);
    for (int c = 0; c < 4; ++c) {
      sys.add(AffineExpr(IntVec{coef(rng), coef(rng)}, cons(rng)));
    }
    ConstraintSystem out = remove_redundant(sys);
    EXPECT_LE(out.size(), sys.size());
    std::set<std::vector<Int>> a, b;
    scan(sys, [&](const IntVec& p) { a.insert(p.to_vector()); });
    scan(out, [&](const IntVec& p) { b.insert(p.to_vector()); });
    EXPECT_EQ(a, b) << "iter " << iter;
  }
}

}  // namespace
}  // namespace lmre
