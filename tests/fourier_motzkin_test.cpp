#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <string>

#include "polyhedra/box.h"
#include "polyhedra/fourier_motzkin.h"
#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre {
namespace {

// Brute-force reference: enumerate a wide bounding box, keep points the
// system accepts.
std::set<std::vector<Int>> brute_force(const ConstraintSystem& sys, Int lo, Int hi) {
  std::set<std::vector<Int>> pts;
  const size_t n = sys.dims();
  std::vector<Int> p(n, lo);
  for (;;) {
    IntVec v{std::vector<Int>(p)};
    if (sys.contains(v)) pts.insert(p);
    size_t k = n;
    while (k > 0) {
      if (++p[k - 1] <= hi) break;
      p[k - 1] = lo;
      --k;
    }
    if (k == 0) break;
  }
  return pts;
}

std::set<std::vector<Int>> scanned(const ConstraintSystem& sys) {
  std::set<std::vector<Int>> pts;
  scan(sys, [&](const IntVec& p) { pts.insert(p.to_vector()); });
  return pts;
}

TEST(FourierMotzkin, BoxBoundsRoundTrip) {
  IntBox box = IntBox::from_upper_bounds({3, 4});
  LoopBounds lb = extract_loop_bounds(box.to_constraints());
  ASSERT_EQ(lb.depth(), 2u);
  Int lo, hi;
  ASSERT_TRUE(lb.range(0, IntVec(2), lo, hi));
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 3);
  IntVec outer(2);
  outer[0] = 2;
  ASSERT_TRUE(lb.range(1, outer, lo, hi));
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 4);
}

TEST(FourierMotzkin, TriangleBounds) {
  // { (x, y) : 1 <= x <= 5, 1 <= y <= x }.
  ConstraintSystem sys(2);
  sys.add_range(AffineExpr::variable(2, 0), 1, 5);
  sys.add(AffineExpr::variable(2, 1) - 1);                               // y >= 1
  sys.add(AffineExpr::variable(2, 0) - AffineExpr::variable(2, 1));      // x >= y
  EXPECT_EQ(count_points(sys), 15);  // 1+2+3+4+5
  EXPECT_EQ(scanned(sys), brute_force(sys, -2, 8));
}

TEST(FourierMotzkin, TransformedParallelogram) {
  // Image of [1,4]x[1,3] under u = i+j, v = j: scanning u, v must visit 12
  // points.
  ConstraintSystem sys(2);
  // i = u - v in [1,4]; j = v in [1,3].
  AffineExpr u = AffineExpr::variable(2, 0), v = AffineExpr::variable(2, 1);
  sys.add_range(u - v, 1, 4);
  sys.add_range(v, 1, 3);
  EXPECT_EQ(count_points(sys), 12);
  EXPECT_EQ(scanned(sys), brute_force(sys, -5, 12));
}

TEST(FourierMotzkin, EmptySystemDetected) {
  ConstraintSystem sys(2);
  sys.add(AffineExpr::variable(2, 0) - 5);        // x >= 5
  sys.add(-AffineExpr::variable(2, 0) + 3);       // x <= 3
  sys.add_range(AffineExpr::variable(2, 1), 1, 2);
  LoopBounds lb = extract_loop_bounds(sys);
  // Either the emptiness is detected during elimination or the scan visits
  // nothing.
  Int count = 0;
  scan(lb, [&](const IntVec&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(FourierMotzkin, UnboundedThrows) {
  ConstraintSystem sys(2);
  sys.add(AffineExpr::variable(2, 0) - 1);  // x >= 1 only: no upper bound
  sys.add_range(AffineExpr::variable(2, 1), 1, 2);
  EXPECT_THROW(extract_loop_bounds(sys), UnsupportedError);
}

TEST(FourierMotzkin, EliminationKeepsProjection) {
  // Eliminating y from { x+y <= 6, y >= 1, x >= 0 } must allow x in [0,5].
  ConstraintSystem sys(2);
  AffineExpr x = AffineExpr::variable(2, 0), y = AffineExpr::variable(2, 1);
  sys.add(-(x + y) + 6);
  sys.add(y - 1);
  sys.add(x);
  ConstraintSystem proj = eliminate_variable(sys, 1);
  for (Int xv = 0; xv <= 5; ++xv) {
    EXPECT_TRUE(proj.contains(IntVec{xv, 0})) << xv;
  }
  EXPECT_FALSE(proj.contains(IntVec{6, 0}));
}

TEST(FourierMotzkin, DivisorBoundsUseCeilFloor) {
  // { x : 2x >= 3, 2x <= 9 } -> x in [2, 4].
  ConstraintSystem sys(1);
  sys.add(AffineExpr(IntVec{2}, -3));   // 2x - 3 >= 0
  sys.add(AffineExpr(IntVec{-2}, 9));   // 9 - 2x >= 0
  LoopBounds lb = extract_loop_bounds(sys);
  Int lo, hi;
  ASSERT_TRUE(lb.range(0, IntVec(1), lo, hi));
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 4);
}

TEST(FourierMotzkin, RandomizedAgainstBruteForce) {
  std::mt19937 rng(31);
  std::uniform_int_distribution<Int> coef(-3, 3), cons(-6, 6);
  int nonempty = 0;
  for (int iter = 0; iter < 60; ++iter) {
    ConstraintSystem sys(2);
    // Bounding box keeps the system bounded; add random cuts.
    sys.add_range(AffineExpr::variable(2, 0), -4, 4);
    sys.add_range(AffineExpr::variable(2, 1), -4, 4);
    for (int c = 0; c < 3; ++c) {
      IntVec v{coef(rng), coef(rng)};
      sys.add(AffineExpr(v, cons(rng)));
    }
    auto expect = brute_force(sys, -5, 5);
    auto got = scanned(sys);
    EXPECT_EQ(got, expect) << "iter " << iter;
    if (!expect.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 10);  // the sweep exercised non-trivial cases
}

TEST(FourierMotzkin, RandomizedTriple) {
  std::mt19937 rng(77);
  std::uniform_int_distribution<Int> coef(-2, 2), cons(-4, 6);
  for (int iter = 0; iter < 25; ++iter) {
    ConstraintSystem sys(3);
    for (size_t d = 0; d < 3; ++d) sys.add_range(AffineExpr::variable(3, d), -3, 3);
    for (int c = 0; c < 2; ++c) {
      IntVec v{coef(rng), coef(rng), coef(rng)};
      sys.add(AffineExpr(v, cons(rng)));
    }
    EXPECT_EQ(scanned(sys), brute_force(sys, -4, 4)) << "iter " << iter;
  }
}

// The copy-based elimination eliminate_variable replaced, with the
// normalize-and-dedupe rule of ConstraintSystem::add spelled out: each
// combined row is built as l * q + u * p and then normalized.
std::vector<Constraint> reference_eliminate(const ConstraintSystem& system,
                                            size_t var) {
  std::vector<Constraint> out;
  auto add = [&out](const AffineExpr& expr) {
    AffineExpr e = expr;
    Int g = e.coeffs().content();
    if (g > 1) {
      IntVec c(e.dims());
      for (size_t i = 0; i < e.dims(); ++i) c[i] = e.coeff(i) / g;
      e = AffineExpr(c, floor_div(e.constant(), g));
    }
    for (auto& existing : out) {
      if (existing.expr.coeffs() == e.coeffs()) {
        if (e.constant() < existing.expr.constant()) existing = Constraint{e};
        return;
      }
    }
    out.push_back(Constraint{e});
  };
  std::vector<Constraint> lowers, uppers;
  for (const auto& c : system.constraints()) {
    Int a = c.expr.coeff(var);
    if (a > 0) {
      lowers.push_back(c);
    } else if (a < 0) {
      uppers.push_back(c);
    } else {
      add(c.expr);
    }
  }
  for (const auto& l : lowers) {
    Int p = l.expr.coeff(var);
    for (const auto& u : uppers) {
      Int q = checked_neg(u.expr.coeff(var));
      add(l.expr * q + u.expr * p);
    }
  }
  return out;
}

TEST(FourierMotzkin, EliminationMatchesCopyBasedReference) {
  // Seeded systems of 1-6 dims.  Scaled and shifted copies of a row fold
  // into one (duplicate or dominated) at input, and the pairwise
  // combinations then produce further duplicate and dominated rows that
  // the dedupe rule must resolve identically.  Every variable is
  // eliminated in turn, each round checked against the reference.
  std::mt19937 rng(2024);
  std::uniform_int_distribution<Int> coef(-3, 3), cons(-6, 6), scale(2, 3);
  size_t rounds = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = 1 + static_cast<size_t>(iter % 6);
    ConstraintSystem sys(n);
    std::vector<AffineExpr> rows;
    const int count = 2 + static_cast<int>(rng() % 9);
    for (int r = 0; r < count; ++r) {
      IntVec v(n);
      for (size_t i = 0; i < n; ++i) v[i] = coef(rng);
      rows.emplace_back(v, cons(rng));
      if (rng() % 3 == 0) {
        Int k = scale(rng);
        rows.emplace_back(v * k, checked_add(checked_mul(cons(rng), k), cons(rng)));
      }
    }
    for (const auto& e : rows) sys.add(e);
    for (size_t var = n; var-- > 0 && sys.size() <= 60;) {
      std::vector<Constraint> expect = reference_eliminate(sys, var);
      ConstraintSystem got = eliminate_variable(sys, var);
      ASSERT_EQ(got.constraints(), expect) << "iter " << iter << " var " << var;
      sys = got;
      ++rounds;
    }
  }
  EXPECT_GT(rounds, 400u) << rounds;
}

TEST(FourierMotzkin, CombinationOverflowReportsCheckedMul) {
  // 3*x0 + 2^62*x1 >= 0 against -5*x0 + x1 >= 0: eliminating x0 scales
  // the first row by 5, and 5 * 2^62 does not fit.
  const Int big = Int{1} << 62;
  ConstraintSystem sys(2);
  sys.add(AffineExpr(IntVec{3, big}, 0));
  sys.add(AffineExpr(IntVec{-5, 1}, 0));
  std::string what;
  try {
    eliminate_variable(sys, 0);
  } catch (const OverflowError& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "checked_mul overflow");
  EXPECT_THROW(reference_eliminate(sys, 0), OverflowError);
}

}  // namespace
}  // namespace lmre
