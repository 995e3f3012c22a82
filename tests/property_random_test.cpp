// Randomized property sweeps (parameterized gtest): the estimator formulas
// against the exact oracle, and structural invariants of transformations.

#include <gtest/gtest.h>

#include <random>

#include "analysis/distinct.h"
#include "analysis/nonuniform.h"
#include "analysis/window.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "nest_corpus.h"
#include "polyhedra/scanner.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"
#include "transform/unimodular.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xC0FFEE + seed); }

IntMat random_unimodular(std::mt19937& rng, size_t n, int ops = 6) {
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<size_t> idx(0, n - 1);
  std::uniform_int_distribution<Int> factor(-2, 2);
  IntMat t = IntMat::identity(n);
  for (int i = 0; i < ops; ++i) {
    switch (op(rng)) {
      case 0: {
        size_t a = idx(rng), b = idx(rng);
        if (a != b) t = interchange(n, a, b) * t;
        break;
      }
      case 1:
        t = reversal(n, idx(rng)) * t;
        break;
      default: {
        size_t a = idx(rng), b = idx(rng);
        if (a != b) t = skew(n, a, b, factor(rng)) * t;
        break;
      }
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Property: Section 3.1 estimate is exact for d == n with r == 2 references.
class FullDimPairProperty : public ::testing::TestWithParam<int> {};

TEST_P(FullDimPairProperty, EstimateMatchesOracle) {
  auto rng = rng_for(GetParam());
  std::uniform_int_distribution<Int> bound(3, 9), off(-3, 3);
  NestBuilder b;
  Int n1 = bound(rng), n2 = bound(rng);
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 8, n2 + 8});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {0, 0})
      .read(a, {{1, 0}, {0, 1}}, {off(rng), off(rng)});
  LoopNest nest = b.build();
  DistinctEstimate e = estimate_distinct(nest, 0);
  EXPECT_TRUE(e.exact_claimed);
  EXPECT_EQ(e.distinct, simulate(nest).distinct_total) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullDimPairProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: the inclusion-exclusion closed form equals the oracle's union
// for ANY number of uniformly generated references with injective access.
class InclusionExclusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(InclusionExclusionProperty, ClosedFormEqualsOracle) {
  auto rng = rng_for(900 + GetParam());
  std::uniform_int_distribution<Int> bound(3, 8), off(-3, 3), refs(2, 5);
  Int n1 = bound(rng), n2 = bound(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 8, 2 * n2 + 8});
  StatementBuilder sb = b.statement();
  Int r = refs(rng);
  for (Int k = 0; k < r; ++k) {
    // Injective but non-trivial access (det 2): mixes integral and
    // non-integral pairwise shifts.
    sb.read(a, IntMat{{1, 0}, {0, 2}}, IntVec{off(rng) + 4, off(rng) + 4});
  }
  LoopNest nest = b.build();
  EXPECT_EQ(distinct_exact_inclusion_exclusion(nest, 0),
            simulate(nest).distinct_total)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, InclusionExclusionProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: Section 3.2 estimate is exact for single references with a
// 1-dimensional kernel.
class KernelSingleRefProperty : public ::testing::TestWithParam<int> {};

TEST_P(KernelSingleRefProperty, EstimateMatchesOracle) {
  auto rng = rng_for(1000 + GetParam());
  std::uniform_int_distribution<Int> bound(3, 12), coefd(1, 5);
  Int n1 = bound(rng), n2 = bound(rng);
  Int a1 = coefd(rng), a2 = coefd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {a1 * n1 + a2 * n2 + 2});
  b.statement().read(a, IntMat{{a1, a2}}, IntVec{0});
  LoopNest nest = b.build();
  DistinctEstimate e = estimate_distinct(nest, 0);
  ASSERT_EQ(e.method, DistinctMethod::kKernelSingleRef);
  EXPECT_TRUE(e.exact_claimed);
  EXPECT_EQ(e.distinct, simulate(nest).distinct_total)
      << "coeffs (" << a1 << "," << a2 << ") box " << n1 << "x" << n2;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelSingleRefProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: depth-3 kernel single-reference exactness (Example 5 family).
class KernelDepth3Property : public ::testing::TestWithParam<int> {};

TEST_P(KernelDepth3Property, EstimateMatchesOracle) {
  auto rng = rng_for(2000 + GetParam());
  std::uniform_int_distribution<Int> bound(3, 7), coefd(1, 3);
  Int n1 = bound(rng), n2 = bound(rng), n3 = bound(rng);
  Int c1 = coefd(rng), c2 = coefd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2).loop("k", 1, n3);
  ArrayId a = b.array("A", {c1 * n1 + c2 * n3 + 2, n2 + n3 + 2});
  b.statement().read(a, IntMat{{c1, 0, c2}, {0, 1, 1}}, IntVec{0, 0});
  LoopNest nest = b.build();
  DistinctEstimate e = estimate_distinct(nest, 0);
  if (e.exact_claimed) {
    EXPECT_EQ(e.distinct, simulate(nest).distinct_total)
        << "c1=" << c1 << " c2=" << c2;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelDepth3Property, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Property: the non-uniform upper bound is sound.
class NonUniformUpperProperty : public ::testing::TestWithParam<int> {};

TEST_P(NonUniformUpperProperty, UpperBoundHolds) {
  auto rng = rng_for(3000 + GetParam());
  std::uniform_int_distribution<Int> bound(4, 10), coefd(-5, 5), off(-20, 20);
  Int n1 = bound(rng), n2 = bound(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {400});
  Int c11 = coefd(rng), c12 = coefd(rng), c21 = coefd(rng), c22 = coefd(rng);
  if (c11 == 0 && c12 == 0) c11 = 1;
  if (c21 == 0 && c22 == 0) c22 = 1;
  if (c11 == c21 && c12 == c22) c21 += 1;
  b.statement().read(a, IntMat{{c11, c12}}, IntVec{off(rng)});
  b.statement().read(a, IntMat{{c21, c22}}, IntVec{off(rng)});
  LoopNest nest = b.build();
  NonUniformBounds nb = nonuniform_bounds(nest, 0);
  Int actual = simulate(nest).distinct_total;
  EXPECT_LE(actual, nb.upper);
  EXPECT_GE(nb.lower_conservative, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NonUniformUpperProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: a unimodular reordering preserves the address multiset (distinct
// count and access count), and the transformed scan visits exactly the
// iteration-count many points.
class TransformInvariantProperty : public ::testing::TestWithParam<int> {};

TEST_P(TransformInvariantProperty, DistinctAndAccessesPreserved) {
  auto rng = rng_for(4000 + GetParam());
  std::uniform_int_distribution<Int> bound(3, 8), off(-2, 2);
  size_t depth = 2 + GetParam() % 2;
  NestBuilder b;
  Int vol = 1;
  for (size_t d = 0; d < depth; ++d) {
    Int n = bound(rng);
    b.loop("i" + std::to_string(d), 1, n);
    vol *= n;
  }
  std::vector<Int> extents(2, 30);
  ArrayId a = b.array("A", extents);
  IntMat acc(2, depth);
  for (size_t c = 0; c < depth; ++c) {
    acc(0, c) = off(rng);
    acc(1, c) = off(rng);
  }
  b.statement().write(a, acc, IntVec{10, 10}).read(a, acc, IntVec{11, 9});
  LoopNest nest = b.build();
  IntMat t = random_unimodular(rng, depth);
  TraceStats orig = simulate(nest);
  TraceStats tr = simulate_transformed(nest, t);
  EXPECT_EQ(orig.iterations, vol);
  EXPECT_EQ(tr.iterations, vol);
  EXPECT_EQ(orig.total_accesses, tr.total_accesses);
  EXPECT_EQ(orig.distinct_total, tr.distinct_total);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransformInvariantProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: legality is preserved structurally -- for any legal T, all
// transformed memory dependences are lexicographically positive.
class LegalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(LegalityProperty, TransformedDepsLexPositive) {
  auto rng = rng_for(5000 + GetParam());
  std::uniform_int_distribution<Int> off(-3, 3);
  NestBuilder b;
  b.loop("i", 1, 8).loop("j", 1, 8);
  ArrayId a = b.array("A", {14, 14});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {0, 0})
      .read(a, {{1, 0}, {0, 1}}, {off(rng), off(rng)});
  LoopNest nest = b.build();
  auto deps = analyze_dependences(nest).distance_vectors(false);
  IntMat t = random_unimodular(rng, 2);
  if (is_legal(t, deps)) {
    for (const auto& d : transform_dependences(t, deps)) {
      EXPECT_TRUE(d.lex_positive());
    }
  }
  if (is_tileable(t, deps)) {
    for (const auto& d : transform_dependences(t, deps)) {
      for (size_t k = 0; k < d.size(); ++k) EXPECT_GE(d[k], 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LegalityProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: the optimizer's result is legal, unimodular, and never worse
// than the identity on random 1-d-array stream loops.
class OptimizerProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerProperty, NeverWorseAndAlwaysLegal) {
  auto rng = rng_for(6000 + GetParam());
  LoopNest nest = test::random_stream2(rng);
  OptimizeResult res = optimize_locality(nest);
  EXPECT_TRUE(res.transform.is_unimodular());
  auto memory = analyze_dependences(nest).distance_vectors(false);
  EXPECT_TRUE(is_legal(res.transform, memory));
  Int before = simulate(nest).mws_total;
  Int after = simulate_transformed(nest, res.transform).mws_total;
  EXPECT_LE(after, before) << print_nest(nest);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Property: FM-extracted bounds of a transformed box scan the right number
// of points, in lexicographic order.
class TransformedScanProperty : public ::testing::TestWithParam<int> {};

TEST_P(TransformedScanProperty, CountAndOrder) {
  auto rng = rng_for(7000 + GetParam());
  std::uniform_int_distribution<Int> bound(2, 7);
  size_t depth = 2 + GetParam() % 2;
  std::vector<Int> n;
  Int vol = 1;
  for (size_t d = 0; d < depth; ++d) {
    n.push_back(bound(rng));
    vol *= n.back();
  }
  IntBox box = IntBox::from_upper_bounds(n);
  IntMat t = random_unimodular(rng, depth);
  IntMat tinv = t.inverse_unimodular();
  ConstraintSystem sys(depth);
  for (size_t k = 0; k < depth; ++k) {
    sys.add_range(AffineExpr(tinv.row(k), 0), 1, n[k]);
  }
  Int count = 0;
  std::optional<IntVec> prev;
  scan(sys, [&](const IntVec& u) {
    ++count;
    EXPECT_TRUE(box.contains(tinv * u));
    if (prev) {
      EXPECT_TRUE(prev->lex_less(u));
    }
    prev = u;
  });
  EXPECT_EQ(count, vol);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransformedScanProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Property: eq. (2) with the identity row upper-bounds the exact window for
// single-reference 1-d streams (the estimate counts a full inner span).
class Eq2SoundnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(Eq2SoundnessProperty, EstimateAtLeastExact) {
  auto rng = rng_for(8000 + GetParam());
  std::uniform_int_distribution<Int> coefd(1, 5), bound(4, 10);
  Int a1 = coefd(rng), a2 = coefd(rng), n1 = bound(rng), n2 = bound(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId x = b.array("X", {a1 * n1 + a2 * n2 + 2});
  b.statement().read(x, IntMat{{a1, a2}}, IntVec{0});
  LoopNest nest = b.build();
  Rational est = mws2_estimate(IntVec{a1, a2}, nest.bounds(), 1, 0);
  Int exact = simulate(nest).mws_total;
  EXPECT_GE(est, Rational(exact))
      << "coeffs (" << a1 << "," << a2 << ") box " << n1 << "x" << n2;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Eq2SoundnessProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace lmre
