#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "analysis/reuse.h"
#include "analysis/window.h"
#include "support/error.h"
#include "symbolic/derive.h"
#include "symbolic/expr.h"

namespace lmre {
namespace {

TEST(Poly, ConstantsAndVariables) {
  Poly c = Poly::constant(2, 7);
  EXPECT_EQ(c.eval({10, 20}), 7);
  EXPECT_EQ(c.str(), "7");
  Poly n2 = Poly::variable(2, 1);
  EXPECT_EQ(n2.eval({10, 20}), 20);
  EXPECT_EQ(n2.str(), "N2");
  EXPECT_THROW(Poly::variable(2, 2), InvalidArgument);
}

TEST(Poly, Arithmetic) {
  Poly n1 = Poly::variable(2, 0), n2 = Poly::variable(2, 1);
  Poly p = (n1 - 1) * (n2 - 2);
  EXPECT_EQ(p.eval({10, 10}), 72);  // the paper's Example 2 reuse at 10x10
  EXPECT_EQ(p.str(), "N1*N2 - 2*N1 - N2 + 2");
  EXPECT_EQ(p.degree(), 2);
  Poly q = p - p;
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(q.str(), "0");
}

TEST(Poly, CancellationRemovesTerms) {
  Poly n1 = Poly::variable(1, 0);
  Poly p = (n1 + 1) * (n1 - 1);  // N1^2 - 1
  EXPECT_EQ(p.str(), "N1^2 - 1");
  EXPECT_EQ(p.eval({7}), 48);
}

TEST(Poly, MismatchedArityThrows) {
  EXPECT_THROW(Poly::variable(1, 0) + Poly::variable(2, 0), InvalidArgument);
  EXPECT_THROW(Poly::constant(2, 1).eval({5}), InvalidArgument);
}

// The reuse volume along distance d: prod_k (N_k - |d_k|).
Poly reuse_poly(const IntVec& d) {
  std::vector<Int> subs;
  for (size_t k = 0; k < d.size(); ++k) subs.push_back(checked_abs(d[k]));
  return SymbolicExpr::clamped_product(subs).interior();
}

// r full box volumes minus the reuse along each distance.
Poly distinct_poly(size_t vars, Int r, const std::vector<IntVec>& ds) {
  Poly out = SymbolicExpr::clamped_product(std::vector<Int>(vars, 0), r).interior();
  for (const IntVec& d : ds) out = out - reuse_poly(d);
  return out;
}

TEST(Symbolic, ReuseMatchesPaperExamples) {
  // Example 2: (N1-1)(N2-2).
  Poly p = reuse_poly(IntVec{1, -2});
  EXPECT_EQ(p.str(), "N1*N2 - 2*N1 - N2 + 2");
  EXPECT_EQ(p.eval({10, 10}), 72);
  // Example 4: (N1-5)(N2-2) = 120 at 20x10.
  EXPECT_EQ(reuse_poly(IntVec{5, -2}).eval({20, 10}), 120);
  // Example 5: (N1-1)(N2-3)(N3-3) = 4131 at 10x20x30.
  EXPECT_EQ(reuse_poly(IntVec{1, 3, -3}).eval({10, 20, 30}), 4131);
}

TEST(Symbolic, DistinctFormulas) {
  // Example 2: 2*N1*N2 - (N1-1)(N2-2) -> 128 at 10x10.
  Poly d = distinct_poly(2, 2, {IntVec{1, -2}});
  EXPECT_EQ(d.eval({10, 10}), 128);
  // Example 3: 4*N1*N2 - [(N1-1)N2 + N1(N2-1) + (N1-1)(N2-1)] -> 139.
  Poly d3 = distinct_poly(2, 4, {IntVec{1, 0}, IntVec{0, 1}, IntVec{1, 1}});
  EXPECT_EQ(d3.eval({10, 10}), 139);
  // Example 4/5 kernel forms: one box volume minus the kernel reuse.
  EXPECT_EQ(distinct_poly(2, 1, {IntVec{5, -2}}).eval({20, 10}), 80);
  EXPECT_EQ(distinct_poly(3, 1, {IntVec{1, 3, -3}}).eval({10, 20, 30}), 1869);
}

TEST(Symbolic, MwsMatchesPaperExample10) {
  // 1 + d1(N2-|d2|)(N3-|d3|) + d2(N3-|d3|): 541 at (10,20,30).  The chain
  // window is the exact window; the paper's formula adds the current
  // iteration's element.
  Poly m = symbolic_chain_window(IntVec{1, 3, -3}, 3).interior() + 1;
  EXPECT_EQ(m.eval({10, 20, 30}), 541);
  EXPECT_EQ(m.str(), "N2*N3 - 3*N2 + 1");
}

TEST(Symbolic, AgreesWithConcreteFunctionsOnRandomInputs) {
  std::mt19937 rng(9);
  std::uniform_int_distribution<Int> dv(-4, 4), bnd(6, 15);
  for (int iter = 0; iter < 60; ++iter) {
    size_t n = 2 + iter % 2;
    IntVec d(n);
    for (size_t k = 0; k < n; ++k) d[k] = dv(rng);
    std::vector<Int> bounds;
    for (size_t k = 0; k < n; ++k) bounds.push_back(bnd(rng));
    IntBox box = IntBox::from_upper_bounds(bounds);
    EXPECT_EQ(reuse_poly(d).eval(bounds), reuse_volume(d, box)) << d.str();
  }
}

// ---- Poly ring identities on random polynomials ------------------------

// Small random polynomial in `vars` variables: degree <= 3 per variable,
// coefficients in [-5, 5] -- products of two stay far from overflow at the
// evaluation points used below.
Poly random_poly(std::mt19937& rng, size_t vars) {
  std::uniform_int_distribution<Int> coef(-5, 5), exp(0, 3);
  std::uniform_int_distribution<int> nterms(1, 4);
  Poly p = Poly::constant(vars, 0);
  for (int t = nterms(rng); t > 0; --t) {
    Poly term = Poly::constant(vars, coef(rng));
    for (size_t k = 0; k < vars; ++k) {
      for (Int e = exp(rng); e > 0; --e) term = term * Poly::variable(vars, k);
    }
    p = p + term;
  }
  return p;
}

TEST(Poly, RingIdentitiesOnRandomPolys) {
  std::mt19937 rng(41);
  std::uniform_int_distribution<Int> bnd(-3, 3);
  for (int iter = 0; iter < 50; ++iter) {
    size_t vars = 1 + iter % 3;
    Poly a = random_poly(rng, vars);
    Poly b = random_poly(rng, vars);
    Poly c = random_poly(rng, vars);
    std::vector<Int> at(vars);
    for (auto& v : at) v = bnd(rng);
    // Associativity, commutativity, distributivity -- checked both on the
    // canonical term maps (str) and at a random evaluation point.
    EXPECT_EQ(((a + b) + c).str(), (a + (b + c)).str());
    EXPECT_EQ((a * b).str(), (b * a).str());
    EXPECT_EQ(((a * b) * c).str(), (a * (b * c)).str());
    EXPECT_EQ((a * (b + c)).str(), (a * b + a * c).str());
    EXPECT_EQ((a * (b + c)).eval(at), a.eval(at) * (b.eval(at) + c.eval(at)));
    // Additive inverse and multiplicative identity.
    EXPECT_TRUE((a - a).is_zero());
    EXPECT_EQ((a * Poly::constant(vars, 1)).str(), a.str());
    EXPECT_TRUE((a * Poly::constant(vars, 0)).is_zero());
  }
}

TEST(Poly, EvalMatchesTermByTermReference) {
  // eval() must agree with an independent power-product reference built
  // from the exported terms() (the same terms the JSON emitter shows).
  std::mt19937 rng(43);
  std::uniform_int_distribution<Int> bnd(-3, 3);
  for (int iter = 0; iter < 50; ++iter) {
    size_t vars = 1 + iter % 3;
    Poly p = random_poly(rng, vars);
    std::vector<Int> at(vars);
    for (auto& v : at) v = bnd(rng);
    Int ref = 0;
    for (const PolyTerm& t : p.terms()) {
      Int term = t.coef;
      for (size_t k = 0; k < vars; ++k) {
        for (Int e = 0; e < t.exps[k]; ++e) term *= at[k];
      }
      ref += term;
    }
    EXPECT_EQ(p.eval(at), ref) << p.str();
  }
}

TEST(Poly, StrRendersDescendingLexOrder) {
  Poly n1 = Poly::variable(3, 0), n2 = Poly::variable(3, 1),
       n3 = Poly::variable(3, 2);
  // Terms render in descending lexicographic exponent order (all N1 powers
  // before any N1-free term, ties broken on N2, ...), the constant last.
  // These strings are load-bearing: the JSON "polynomial" field and the
  // golden files render through them.
  EXPECT_EQ((n3 + n2 + n1).str(), "N1 + N2 + N3");
  EXPECT_EQ((n2 * n3 + n1 + 7).str(), "N1 + N2*N3 + 7");
  EXPECT_EQ((n1 * n1 - n1 * n2 * n3).str(), "N1^2 - N1*N2*N3");
  EXPECT_EQ(((n1 - 1) * (n2 - 3) * (n3 - 3)).str(),
            "N1*N2*N3 - 3*N1*N2 - 3*N1*N3 + 9*N1 - N2*N3 + 3*N2 + 3*N3 - 9");
  EXPECT_EQ((n1 * 0).str(), "0");
}

TEST(Poly, OverflowGuards) {
  const Int big = std::numeric_limits<Int>::max() / 2;
  Poly n1 = Poly::variable(1, 0);
  // eval: N1^2 at 2^32 exceeds 64 bits.
  EXPECT_THROW((n1 * n1).eval({Int(1) << 32}), OverflowError);
  // operator* on coefficients: big * big overflows during multiplication.
  Poly huge = Poly::constant(1, big);
  EXPECT_THROW(huge * huge, OverflowError);
  // operator+ on coefficients of the same monomial.
  Poly near_max = Poly::constant(1, std::numeric_limits<Int>::max() - 1);
  EXPECT_THROW(near_max + near_max, OverflowError);
  // In-range cases must not throw.
  EXPECT_EQ((n1 * n1).eval({Int(1) << 31}), (Int(1) << 31) * (Int(1) << 31));
}

// ---- SymbolicExpr / SymbolicWindow (src/symbolic) ----------------------

TEST(SymbolicExpr, ClampedEvalAndRendering) {
  // (N1 - 3)(N2 - 2) as a clamped product: exact at interior points and
  // clamped to zero (not negative) when a factor underflows.
  SymbolicExpr e = SymbolicExpr::clamped_product({3, 2});
  EXPECT_EQ(e.str(), "(N1 - 3)*(N2 - 2)");
  EXPECT_EQ(e.eval({10, 10}), 56);
  EXPECT_EQ(e.eval({3, 10}), 0);   // first factor clamps
  EXPECT_EQ(e.eval({2, 10}), 0);   // ... and stays clamped below
  EXPECT_EQ(e.eval({10, 2}), 0);
  // The interior polynomial drops the clamps.
  EXPECT_EQ(e.interior().eval({2, 10}), -8);
}

TEST(SymbolicExpr, CanonicalSumsAndEquality) {
  SymbolicExpr a = SymbolicExpr::clamped_product({1, 0});  // (N1 - 1)*N2
  SymbolicExpr b = SymbolicExpr::clamped_product({0, 1});  // N1*(N2 - 1)
  EXPECT_EQ(a + b, b + a);
  EXPECT_TRUE((a - a).is_zero());
  SymbolicExpr twice = a + a;
  EXPECT_EQ(twice, a * 2);
  EXPECT_EQ(twice.eval({5, 5}), 40);
  EXPECT_EQ((a + b).str(), "N1*(N2 - 1) + (N1 - 1)*N2");
}

TEST(SymbolicExpr, ConstantsAndSubtraction) {
  SymbolicExpr v = SymbolicExpr::clamped_product({0, 0});  // N1*N2
  SymbolicExpr c = SymbolicExpr::constant(2, 7);
  EXPECT_EQ((v - c).eval({3, 4}), 5);
  EXPECT_EQ(c.eval({1, 1}), 7);
  EXPECT_EQ(c.str(), "7");
  EXPECT_EQ(SymbolicExpr::constant(2, 0).str(), "0");
}

TEST(SymbolicWindow, MinOverBranchesAndStr) {
  // Example 10's chain window: the last branch is the paper's Section 4.3
  // interior sum; the earlier branches cap it by suffix volumes so the
  // minimum stays exact at clamping edges.
  SymbolicWindow w = symbolic_chain_window(IntVec{1, 3, -3}, 3);
  ASSERT_EQ(w.branches().size(), 3u);
  EXPECT_EQ(w.eval({10, 20, 30}), 540);  // (20-3)(30-3) + 3*(30-3)
  EXPECT_EQ(w.eval({10, 3, 30}), 0);     // N2 = |d2| collapses the chain
  EXPECT_EQ(w.str(),
            "min((N1 - 1)*(N2 - 3)*(N3 - 3), 2*(N2 - 3)*(N3 - 3), "
            "(N2 - 3)*(N3 - 3) + 3*(N3 - 3))");
  // interior() is the final (paper-formula) branch.
  EXPECT_EQ(w.interior().eval({10, 20, 30}), 540);
}

TEST(SymbolicWindow, SingleBranchAndZero) {
  SymbolicWindow z = SymbolicWindow::zero(2);
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.eval({100, 100}), 0);
  // d = (0, 1): adjacent-iteration reuse along the innermost loop.
  SymbolicWindow w = symbolic_chain_window(IntVec{0, 1}, 2);
  EXPECT_EQ(w.eval({10, 10}), 1);
  EXPECT_EQ(w.eval({10, 1}), 0);  // one-trip inner loop: no reuse at all
}

TEST(SymbolicWindow, AxesRemapForSignedPermutations) {
  // Under an interchange plan the window formula must be written in the
  // ORIGINAL bound variables: d = (1, 0) at depth 2 with axes {1, 0}
  // reads "the outer transformed loop runs over N2".
  SymbolicWindow w = symbolic_chain_window(IntVec{1, 0}, 2, {1, 0});
  EXPECT_EQ(w.eval({7, 9}), std::min<Int>((9 - 1) * 7, 7));
  SymbolicWindow id = symbolic_chain_window(IntVec{1, 0}, 2, {0, 1});
  EXPECT_EQ(id.eval({7, 9}), std::min<Int>((7 - 1) * 9, 9));
}

}  // namespace
}  // namespace lmre
