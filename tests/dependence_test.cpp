#include <gtest/gtest.h>

#include <algorithm>

#include "codes/examples.h"
#include "dependence/dependence.h"
#include "dependence/lattice.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "lattice_reference.h"

namespace lmre {
namespace {

using test::realizable_solutions;

bool has_distance(const std::vector<IntVec>& ds, const IntVec& d) {
  return std::find(ds.begin(), ds.end(), d) != ds.end();
}

bool has_dep(const DependenceInfo& info, DepKind kind, const IntVec& d) {
  for (const auto& dep : info.deps) {
    if (dep.kind == kind && dep.distance == d) return true;
  }
  return false;
}

TEST(Lattice, RealizableSolutionsOfExample8Flow) {
  // 2x + 5y == -4 within a 25 x 10 box: (3,-2), (8,-4), ...
  IntBox box = IntBox::from_upper_bounds({25, 10});
  auto sols = realizable_solutions(IntMat{{2, 5}}, IntVec{-4}, box);
  EXPECT_TRUE(std::find(sols.begin(), sols.end(), IntVec{3, -2}) != sols.end());
  EXPECT_TRUE(std::find(sols.begin(), sols.end(), IntVec{8, -4}) != sols.end());
  for (const auto& s : sols) {
    EXPECT_EQ(2 * s[0] + 5 * s[1], -4);
    EXPECT_LE(checked_abs(s[0]), 24);
    EXPECT_LE(checked_abs(s[1]), 9);
  }
}

TEST(Lattice, LexminPositive) {
  IntBox box = IntBox::from_upper_bounds({25, 10});
  LexminPair d = lexmin_positive_solutions(IntMat{{2, 5}}, IntVec{-4}, box);
  ASSERT_TRUE(d.forward.has_value());
  EXPECT_EQ(*d.forward, (IntVec{3, -2}));
  ASSERT_TRUE(d.backward.has_value());  // 2x + 5y == 4
  EXPECT_EQ(*d.backward, (IntVec{2, 0}));
}

TEST(Lattice, UniqueSolutionCase) {
  // Identity access: A d == c has the unique solution c.
  IntBox box = IntBox::from_upper_bounds({10, 10});
  auto sols = realizable_solutions(IntMat{{1, 0}, {0, 1}}, IntVec{3, -2}, box);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0], (IntVec{3, -2}));
  // Out of the realizable range: empty.
  EXPECT_TRUE(realizable_solutions(IntMat{{1, 0}, {0, 1}}, IntVec{10, 0}, box).empty());
}

TEST(Lattice, NoIntegerSolution) {
  IntBox box = IntBox::from_upper_bounds({10, 10});
  EXPECT_TRUE(realizable_solutions(IntMat{{2, 4}}, IntVec{3}, box).empty());
}

TEST(Dependence, Example8FullSet) {
  // Paper: distances (3,-2) flow, (2,0) anti, (5,-2) output.
  DependenceInfo info = analyze_dependences(codes::example_8());
  EXPECT_TRUE(has_dep(info, DepKind::kFlow, IntVec{3, -2}));
  EXPECT_TRUE(has_dep(info, DepKind::kAnti, IntVec{2, 0}));
  EXPECT_TRUE(has_dep(info, DepKind::kOutput, IntVec{5, -2}));
  EXPECT_TRUE(has_dep(info, DepKind::kInput, IntVec{5, -2}));
  // Distance vector sets.
  auto all = info.distance_vectors(true);
  EXPECT_EQ(all.size(), 3u);  // (5,-2) deduplicated across kinds
  EXPECT_TRUE(has_distance(all, IntVec{3, -2}));
  EXPECT_TRUE(has_distance(all, IntVec{2, 0}));
  EXPECT_TRUE(has_distance(all, IntVec{5, -2}));
  auto memory = info.distance_vectors(false);
  EXPECT_EQ(memory.size(), 3u);
}

TEST(Dependence, Example7SingleInputReuse) {
  DependenceInfo info = analyze_dependences(codes::example_7());
  ASSERT_EQ(info.deps.size(), 1u);
  EXPECT_EQ(info.deps[0].kind, DepKind::kInput);
  EXPECT_EQ(info.deps[0].distance, (IntVec{3, 2}));
  EXPECT_EQ(info.deps[0].level(), 1);
  // No memory dependences in a read-only nest.
  EXPECT_TRUE(info.distance_vectors(false).empty());
}

TEST(Dependence, Example2SingleFlow) {
  DependenceInfo info = analyze_dependences(codes::example_2());
  ASSERT_EQ(info.deps.size(), 1u);
  EXPECT_EQ(info.deps[0].kind, DepKind::kFlow);
  EXPECT_EQ(info.deps[0].distance, (IntVec{1, -2}));
}

TEST(Dependence, Example3InputLattice) {
  // Four reads; distances from S1 to the others: (1,0), (0,1), (1,1).
  DependenceInfo info = analyze_dependences(codes::example_3());
  auto ds = info.distance_vectors(true);
  EXPECT_TRUE(has_distance(ds, IntVec{1, 0}));
  EXPECT_TRUE(has_distance(ds, IntVec{0, 1}));
  EXPECT_TRUE(has_distance(ds, IntVec{1, 1}));
  // S2->S3 distance (1,-1) also exists in the pairwise set.
  EXPECT_TRUE(has_distance(ds, IntVec{1, -1}));
  for (const auto& dep : info.deps) EXPECT_EQ(dep.kind, DepKind::kInput);
}

TEST(Dependence, NonUniformFlagged) {
  DependenceInfo info = analyze_dependences(codes::example_6());
  ASSERT_EQ(info.nonuniform_arrays.size(), 1u);
  EXPECT_TRUE(info.has_nonuniform());
  EXPECT_TRUE(info.deps.empty());
}

TEST(Dependence, LevelsReported) {
  // A nest where the dependence is carried by the inner loop.
  NestBuilder b;
  b.loop("i", 1, 10).loop("j", 1, 10);
  ArrayId a = b.array("A", {10, 11});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {0, 0})
      .read(a, {{1, 0}, {0, 1}}, {0, -1});  // A[i][j-1]
  DependenceInfo info = analyze_dependences(b.build());
  ASSERT_EQ(info.deps.size(), 1u);
  EXPECT_EQ(info.deps[0].distance, (IntVec{0, 1}));
  EXPECT_EQ(info.deps[0].level(), 2);
}

TEST(Dependence, ClassifyMatrix) {
  EXPECT_EQ(classify(AccessKind::kWrite, AccessKind::kRead), DepKind::kFlow);
  EXPECT_EQ(classify(AccessKind::kRead, AccessKind::kWrite), DepKind::kAnti);
  EXPECT_EQ(classify(AccessKind::kWrite, AccessKind::kWrite), DepKind::kOutput);
  EXPECT_EQ(classify(AccessKind::kRead, AccessKind::kRead), DepKind::kInput);
}

TEST(Dependence, UnrealizableDistanceExcluded) {
  // Offset difference larger than the iteration space: no dependence.
  NestBuilder b;
  b.loop("i", 1, 5).loop("j", 1, 5);
  ArrayId a = b.array("A", {30, 5});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {0, 0})
      .read(a, {{1, 0}, {0, 1}}, {-20, 0});  // A[i-20][j]: 20 > 4
  DependenceInfo info = analyze_dependences(b.build());
  EXPECT_TRUE(info.deps.empty());
}

TEST(Dependence, DistancesAreLexPositive) {
  for (auto nest : {codes::example_1a(), codes::example_3(), codes::example_8(),
                    codes::example_sec23()}) {
    DependenceInfo info = analyze_dependences(nest);
    for (const auto& d : info.deps) {
      EXPECT_TRUE(d.distance.lex_positive()) << d.distance.str();
    }
  }
}

TEST(Dependence, DirectionStrings) {
  EXPECT_EQ(direction_string(IntVec{3, -2}), "(<, >)");
  EXPECT_EQ(direction_string(IntVec{0, 1}), "(=, <)");
  EXPECT_EQ(direction_string(IntVec{1, 0, -3}), "(<, =, >)");
}

TEST(Dependence, SummaryRendersAllEdges) {
  DependenceInfo info = analyze_dependences(codes::example_8());
  std::string s = summarize_dependences(info);
  EXPECT_NE(s.find("flow (3, -2) (<, >) level 1"), std::string::npos);
  EXPECT_NE(s.find("anti (2, 0) (<, =) level 1"), std::string::npos);
  EXPECT_NE(s.find("output (5, -2)"), std::string::npos);
  std::string nu = summarize_dependences(analyze_dependences(codes::example_6()));
  EXPECT_NE(nu.find("non-uniformly generated"), std::string::npos);
}

TEST(Dependence, HugeRankOneNestIsSearchedNotEnumerated) {
  // 10^15 iterations, a kernel lattice of dimension 2: the lex-min
  // distances come from a search whose work does not grow with the box.
  LoopNest nest = parse_nest(
      "array A[300000];\n"
      "for i = 0 to 99999\n  for j = 0 to 99999\n    for k = 0 to 99999\n"
      "      { A[i + j + k + 2] = A[i + j + k]; }\n");
  DependenceInfo info = analyze_dependences(nest);
  EXPECT_TRUE(has_dep(info, DepKind::kFlow, IntVec{0, 0, 2}));
  EXPECT_TRUE(has_dep(info, DepKind::kAnti, IntVec{0, 1, -3}));
}

TEST(Dependence, Sec23TwoArrays) {
  DependenceInfo info = analyze_dependences(codes::example_sec23());
  // X has offsets 2 and 3 with access (2,3): 2dx+3dy = +/-1 has solutions
  // like (2,-1) and (-1,1)->(1,-1); kernel (3,-2) output/input reuse.
  auto ds = info.distance_vectors(true);
  EXPECT_TRUE(has_distance(ds, IntVec{3, -2}));  // X kernel reuse
  EXPECT_TRUE(has_distance(ds, IntVec{1, -1}));  // Y pair: dx+dy = +/-1
  EXPECT_FALSE(info.has_nonuniform());
}

}  // namespace
}  // namespace lmre
