#include <gtest/gtest.h>

#include <set>

#include "codes/examples.h"
#include "codes/kernels.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "transform/minimizer.h"
#include "transform/tiling.h"
#include "transform/unimodular.h"
#include "support/error.h"

namespace lmre {
namespace {

TEST(TiledOrder, IsAPermutationOfTheIterationSpace) {
  LoopNest nest = codes::example_2(6, 7);
  auto order = tiled_order(nest, IntMat::identity(2), {3, 4});
  EXPECT_EQ(static_cast<Int>(order.size()), nest.iteration_count());
  std::set<std::vector<Int>> seen;
  for (const auto& p : order) {
    EXPECT_TRUE(nest.bounds().contains(p));
    EXPECT_TRUE(seen.insert(p.to_vector()).second) << "duplicate " << p.str();
  }
}

TEST(TiledOrder, FullTileEqualsLexOrder) {
  // One tile covering everything reproduces lexicographic order.
  LoopNest nest = codes::example_2(5, 5);
  auto order = tiled_order(nest, IntMat::identity(2), {100, 100});
  ASSERT_EQ(order.size(), 25u);
  EXPECT_EQ(order.front(), (IntVec{1, 1}));
  EXPECT_EQ(order.back(), (IntVec{5, 5}));
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_TRUE(order[i - 1].lex_less(order[i]));
  }
}

TEST(TiledOrder, UnitTilesAlsoLexOrder) {
  LoopNest nest = codes::example_2(4, 4);
  auto a = tiled_order(nest, IntMat::identity(2), {1, 1});
  auto b = tiled_order(nest, IntMat::identity(2), {100, 100});
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(TiledOrder, GroupsByTile) {
  // 4x4 space, 2x2 tiles: first four iterations are the top-left tile.
  
  LoopNest nest = codes::example_2(4, 4);
  auto order = tiled_order(nest, IntMat::identity(2), {2, 2});
  std::set<std::vector<Int>> first_tile(
      {{1, 1}, {1, 2}, {2, 1}, {2, 2}});
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(first_tile.count(order[static_cast<size_t>(i)].to_vector()))
        << order[static_cast<size_t>(i)].str();
  }
}

TEST(Tiling, PreservesDistinctAndAccessCounts) {
  LoopNest nest = codes::example_8();
  TraceStats plain = simulate(nest);
  TilingReport rep = analyze_tiling(nest, IntMat::identity(2), {5, 5});
  EXPECT_EQ(rep.stats.distinct_total, plain.distinct_total);
  EXPECT_EQ(rep.stats.total_accesses, plain.total_accesses);
  EXPECT_EQ(rep.stats.iterations, plain.iterations);
}

TEST(Tiling, ReportCountsTiles) {
  LoopNest nest = codes::example_2(6, 6);
  TilingReport rep = analyze_tiling(nest, IntMat::identity(2), {3, 3});
  EXPECT_EQ(rep.tiles, 4);
  EXPECT_EQ(rep.max_tile_iterations, 9);
  // Each 3x3 tile of A[i][j] = A[i-1][j+2] touches at most 18 elements.
  EXPECT_LE(rep.max_tile_footprint, 18);
  EXPECT_GE(rep.max_tile_footprint, 9);
}

TEST(Tiling, FootprintShrinksWithTileSize) {
  LoopNest nest = codes::kernel_matmult(8);
  TilingReport big = analyze_tiling(nest, IntMat::identity(3), {8, 8, 8});
  TilingReport small = analyze_tiling(nest, IntMat::identity(3), {2, 2, 2});
  EXPECT_GT(big.max_tile_footprint, small.max_tile_footprint);
  // A 2x2x2 matmult tile touches 3 blocks of 4 elements each.
  EXPECT_EQ(small.max_tile_footprint, 12);
}

TEST(Tiling, TileableTransformKeepsBlockedWindowSmall) {
  // Example 8 with its paper transformation: the tiled execution in the
  // transformed space must still beat the untiled original window.
  LoopNest nest = codes::example_8();
  auto res = minimize_mws_2d(nest);
  ASSERT_TRUE(res.has_value());
  auto deps = analyze_dependences(nest).distance_vectors(true);
  ASSERT_TRUE(is_tileable(res->transform, deps));
  TilingReport rep = analyze_tiling(nest, res->transform, {4, 4});
  EXPECT_LT(rep.mws_tiled, simulate(nest).mws_total);
}

TEST(Tiling, RejectsBadArguments) {
  LoopNest nest = codes::example_2(4, 4);
  EXPECT_THROW(analyze_tiling(nest, IntMat::identity(2), {2}), InvalidArgument);
  EXPECT_THROW(analyze_tiling(nest, IntMat::identity(2), {0, 2}), InvalidArgument);
  EXPECT_THROW(analyze_tiling(nest, IntMat{{2, 0}, {0, 1}}, {2, 2}), InvalidArgument);
}

TEST(Tiling, DepthThree) {
  LoopNest nest = codes::kernel_matmult(4);
  TilingReport rep = analyze_tiling(nest, IntMat::identity(3), {2, 4, 2});
  EXPECT_EQ(rep.tiles, 2 * 1 * 2);
  EXPECT_EQ(rep.stats.distinct_total, simulate(nest).distinct_total);
}

TEST(SimulateOrder, MatchesLexWhenOrderIsLex) {
  LoopNest nest = codes::example_2(5, 6);
  std::vector<IntVec> order;
  for (Int i = 1; i <= 5; ++i) {
    for (Int j = 1; j <= 6; ++j) order.push_back(IntVec{i, j});
  }
  TraceStats a = simulate(nest);
  TraceStats b = simulate_order(nest, order);
  EXPECT_EQ(a.mws_total, b.mws_total);
  EXPECT_EQ(a.distinct_total, b.distinct_total);
}

TEST(SimulateOrder, RejectsOutOfBoundsIteration) {
  LoopNest nest = codes::example_2(3, 3);
  EXPECT_THROW(simulate_order(nest, {IntVec{0, 1}}), InvalidArgument);
}

}  // namespace
}  // namespace lmre
