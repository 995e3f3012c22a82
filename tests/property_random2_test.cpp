// Second randomized property suite, covering the extension modules:
// tiling, allocation, layouts, counting, the parser round trip, and the
// optimizer at depth 3.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "alloc/scratchpad.h"
#include "codes/kernels.h"
#include "dependence/dependence.h"
#include "exact/liveness.h"
#include "program/fusion.h"
#include "exact/oracle.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "layout/spatial.h"
#include "nest_corpus.h"
#include "polyhedra/counting.h"
#include "transform/minimizer.h"
#include "transform/tiling.h"
#include "transform/unimodular.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xBADC0DE + seed); }

using test::random_nest2;

// ---------------------------------------------------------------------------
class TilingProperty : public ::testing::TestWithParam<int> {};

TEST_P(TilingProperty, TiledRunPreservesCountsAndBoundsWindow) {
  auto rng = rng_for(GetParam());
  LoopNest nest = random_nest2(rng);
  std::uniform_int_distribution<Int> td(1, 5);
  std::vector<Int> tiles{td(rng), td(rng)};
  TilingReport rep = analyze_tiling(nest, IntMat::identity(2), tiles);
  TraceStats plain = simulate(nest);
  EXPECT_EQ(rep.stats.distinct_total, plain.distinct_total);
  EXPECT_EQ(rep.stats.total_accesses, plain.total_accesses);
  // The footprint of any tile is bounded by its population times refs.
  EXPECT_LE(rep.max_tile_footprint,
            rep.max_tile_iterations * static_cast<Int>(nest.all_refs().size()));
  EXPECT_GE(rep.tiles, 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TilingProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
class AllocationProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocationProperty, GreedySlotsAlwaysEqualExactWindow) {
  auto rng = rng_for(100 + GetParam());
  LoopNest nest = random_nest2(rng);
  Allocation alloc = allocate_scratchpad(nest);
  EXPECT_TRUE(alloc.verified);
  EXPECT_EQ(alloc.slots, simulate(nest).mws_total);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllocationProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
class SpatialProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpatialProperty, LineWindowInterpolatesElementWindow) {
  auto rng = rng_for(200 + GetParam());
  LoopNest nest = random_nest2(rng);
  auto layouts = default_layouts(nest);
  TraceStats t = simulate(nest);
  SpatialStats one = simulate_lines(nest, layouts, 1);
  EXPECT_EQ(one.mws_lines, t.mws_total);
  // With larger lines the line-window cannot exceed the element window
  // count (each live element pins at most one line, lines are shared).
  SpatialStats four = simulate_lines(nest, layouts, 4);
  EXPECT_LE(four.mws_lines, t.mws_total + 2);
  EXPECT_GE(four.mws_lines, (t.mws_total + 3) / 4 - 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpatialProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
class ParserRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParserRoundTripProperty, RandomNestSurvives) {
  auto rng = rng_for(300 + GetParam());
  std::uniform_int_distribution<Int> bnd(2, 7), coefd(-4, 4), off(-5, 20);
  NestBuilder b;
  size_t depth = 2 + GetParam() % 2;
  for (size_t d = 0; d < depth; ++d) b.loop("i" + std::to_string(d), 1, bnd(rng));
  ArrayId a = b.array("A", {600});
  IntMat acc(1, depth);
  for (size_t d = 0; d < depth; ++d) acc(0, d) = coefd(rng);
  if (acc.row(0).is_zero()) acc(0, 0) = 1;
  b.statement().write(a, acc, IntVec{off(rng) + 100});
  b.statement().read(a, acc, IntVec{off(rng) + 100});
  LoopNest nest = b.build();

  LoopNest back = parse_nest(to_dsl(nest));
  TraceStats x = simulate(nest), y = simulate(back);
  EXPECT_EQ(x.distinct_total, y.distinct_total);
  EXPECT_EQ(x.mws_total, y.mws_total);
  EXPECT_EQ(x.total_accesses, y.total_accesses);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParserRoundTripProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
class CountingProperty : public ::testing::TestWithParam<int> {};

TEST_P(CountingProperty, UnionCountMatchesOracleDistinct) {
  // The exact union counter must agree with the oracle's distinct count for
  // 1-d nests built from the same forms.
  auto rng = rng_for(400 + GetParam());
  std::uniform_int_distribution<Int> bnd(3, 9), coefd(-4, 4), off(-6, 6);
  Int n1 = bnd(rng), n2 = bnd(rng);
  IntVec c1{coefd(rng), coefd(rng)}, c2{coefd(rng), coefd(rng)};
  if (c1.is_zero()) c1[0] = 1;
  if (c2.is_zero()) c2[1] = 1;
  Int o1 = off(rng) + 60, o2 = off(rng) + 60;

  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {200});
  b.statement().read(a, IntMat{{c1[0], c1[1]}}, IntVec{o1});
  b.statement().read(a, IntMat{{c2[0], c2[1]}}, IntVec{o2});
  LoopNest nest = b.build();

  IntBox box = IntBox::from_upper_bounds({n1, n2});
  Int counted = count_image_union({{c1, o1}, {c2, o2}}, box);
  EXPECT_EQ(counted, simulate(nest).distinct_total);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountingProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
class OptimizerDepth3Property : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerDepth3Property, LegalAndNeverWorse) {
  auto rng = rng_for(500 + GetParam());
  LoopNest nest = test::random_kernel3(rng);

  OptimizeResult res = optimize_locality(nest);
  EXPECT_TRUE(res.transform.is_unimodular());
  auto memory = analyze_dependences(nest).distance_vectors(false);
  EXPECT_TRUE(is_legal(res.transform, memory));
  Int before = simulate(nest).mws_total;
  Int after = simulate_transformed(nest, res.transform).mws_total;
  EXPECT_LE(after, before);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerDepth3Property, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
class LivenessProperty : public ::testing::TestWithParam<int> {};

TEST_P(LivenessProperty, LiveValuesNeverExceedDistinct) {
  auto rng = rng_for(600 + GetParam());
  LoopNest nest = random_nest2(rng);
  LivenessStats live = min_memory_liveness(nest);
  TraceStats t = simulate(nest);
  EXPECT_LE(live.max_live, t.distinct_total);
  EXPECT_GE(live.max_live, 0);
  // Per-array peaks never exceed the global peak's sum decomposition.
  Int sum = 0;
  for (auto& [id, v] : live.per_array) sum += v;
  EXPECT_GE(sum, live.max_live);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LivenessProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Property: when fusion succeeds, no produced element is consumed before its
// producing iteration -- i.e. the fused nest has no upward-exposed read of
// an element the producer writes.
class FusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(FusionProperty, LegalFusionNeverReadsBeforeWrite) {
  auto rng = rng_for(700 + GetParam());
  std::uniform_int_distribution<Int> bnd(4, 10), off(-3, 3);
  Int n = bnd(rng);
  Int o = off(rng);

  NestBuilder p1;
  p1.loop("i", 1, n);
  ArrayId a1 = p1.array("A", {n + 6});
  p1.statement().write(a1, {{1}}, {3});
  LoopNest producer = p1.build();

  NestBuilder p2;
  p2.loop("i", 1, n);
  ArrayId a2 = p2.array("A", {n + 6});
  ArrayId b2 = p2.array("B", {n});
  p2.statement().write(b2, {{1}}, {0}).read(a2, {{1}}, {3 + o});
  LoopNest consumer = p2.build();

  FusionResult res = fuse_nests(producer, consumer);
  // Legality prediction: the consumer at i reads A[i + 3 + o], produced at
  // iteration i + o; backward iff o > 0 and the producing iteration is
  // still in range for some i.
  bool backward_possible = o > 0;  // read of A[i+3+o] produced at i+o > i
  if (res.fused.has_value()) {
    EXPECT_FALSE(backward_possible && o <= n - 1)
        << "fusion accepted a backward dependence, offset " << o;
    // Verify directly: in the fused trace, every A-element that is both
    // written and read must be written first.
    LivenessStats live = min_memory_liveness(*res.fused);
    // Upward-exposed A reads would show up as extra input elements beyond
    // B's none and A's never-written boundary cells.
    Int boundary = 0;
    for (Int i = 1; i <= n; ++i) {
      Int read_idx = i + 3 + o;
      bool written = read_idx >= 1 + 3 && read_idx <= n + 3;
      if (!written) ++boundary;
    }
    EXPECT_EQ(live.input_elements, boundary) << "offset " << o;
  } else if (res.blocker == FusionBlocker::kDependence) {
    EXPECT_TRUE(backward_possible) << "fusion rejected a forward offset " << o;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusionProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace lmre
