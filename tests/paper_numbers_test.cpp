// One consolidated test per numbered claim in the paper, so the mapping
// "paper statement -> reproduced value" is checkable in a single file.
// EXPERIMENTS.md cross-references these tests.

#include <gtest/gtest.h>

#include "analysis/distinct.h"
#include "analysis/nonuniform.h"
#include "analysis/reuse.h"
#include "analysis/window.h"
#include "codes/examples.h"
#include "codes/kernels.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "support/parallel_for.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "transform/unimodular.h"

namespace lmre {
namespace {

TEST(Paper, Sec22_Example1_ReuseArea56) {
  // "The total reuse (i.e., the area of the shaded region) is the same in
  // both the examples which is (10-3)(10-2) = 56."
  EXPECT_EQ(estimate_distinct(codes::example_1a(), 0).reuse, 56);
  EXPECT_EQ(estimate_distinct(codes::example_1b(), 0).reuse, 56);
}

TEST(Paper, Sec22_Example1b_MaxReuseCount) {
  // "the maximum reuse count for an element is ceil(10/3) = 4" -- i.e. some
  // element of A[2i+3j] is touched 4 times.
  TraceStats s = simulate(codes::example_1b());
  // max accesses per element = total/distinct is an average; verify via the
  // trace: 100 accesses over 44 elements with max chain along (3,-2).
  EXPECT_EQ(s.total_accesses, 100);
  EXPECT_EQ(s.distinct_total, 44);
}

TEST(Paper, Sec31_Example2_DependenceAndReuse) {
  // "there is a dependence (1,-2) from S1 to S2"; reuse (N1-1)(N2-2).
  LoopNest nest = codes::example_2(10, 10);
  auto info = analyze_dependences(nest);
  ASSERT_EQ(info.deps.size(), 1u);
  EXPECT_EQ(info.deps[0].distance, (IntVec{1, -2}));
  EXPECT_EQ(estimate_distinct(nest, 0).reuse, 9 * 8);
}

TEST(Paper, Sec31_Example3_Reuse261_Distinct139) {
  // "reuse = 90 + 90 + 81 = 261" and "A_d = 400 - 261 = 139".
  DistinctEstimate e = estimate_distinct(codes::example_3(), 0);
  EXPECT_EQ(e.reuse, 261);
  EXPECT_EQ(e.distinct, 139);
}

TEST(Paper, Sec32_Example4_Reuse120_Distinct80) {
  // "reuse = (20-5)(10-2) = 120" and "A_d = 200 - 120 = 80".
  DistinctEstimate e = estimate_distinct(codes::example_4(), 0);
  EXPECT_EQ(e.reuse, 120);
  EXPECT_EQ(e.distinct, 80);
  EXPECT_EQ(simulate(codes::example_4()).distinct_total, 80);
}

TEST(Paper, Sec32_Example5_Reuse4131_Distinct1869) {
  // "reuse = (10-1)(20-3)(30-3) = 4131"; "A_d = 6000 - 4131 = 1869".
  DistinctEstimate e = estimate_distinct(codes::example_5(), 0);
  EXPECT_EQ(e.reuse, 4131);
  EXPECT_EQ(e.distinct, 1869);
  EXPECT_EQ(simulate(codes::example_5()).distinct_total, 1869);
}

TEST(Paper, Sec32_Example6_Bounds) {
  // "LB1=0, LB2=4, UB1=190, UB2=137"; upper 191; lower 179; actual 181
  // (our oracle measures 182 for the loop as printed -- within bounds).
  NonUniformBounds b = nonuniform_bounds(codes::example_6(), 0);
  EXPECT_EQ(b.lb_min, 0);
  EXPECT_EQ(b.ub_max, 190);
  EXPECT_EQ(b.upper, 191);
  EXPECT_EQ(b.lower_paper, 179);
  Int actual = simulate(codes::example_6()).distinct_total;
  EXPECT_GE(actual, b.lower_paper);
  EXPECT_LE(actual, b.upper);
}

TEST(Paper, Sec4_Example7_TransformLadder) {
  // Eisenbeis et al. window costs: 89 original, 41 interchange, 86
  // reversal, 36 reversed interchange; compound transformation -> 1.
  // Our exact oracle measures the same ladder shifted by a small constant
  // (86 / 37 / 84 / 34) and the compound transform reaches exactly 1.
  LoopNest nest = codes::example_7();
  EXPECT_EQ(simulate(nest).mws_total, 86);
  EXPECT_EQ(simulate_transformed(nest, interchange(2, 0, 1)).mws_total, 37);
  EXPECT_EQ(simulate_transformed(nest, reversal(2, 1)).mws_total, 84);
  EXPECT_EQ(simulate_transformed(nest, IntMat{{0, 1}, {-1, 0}}).mws_total, 34);
  auto res = minimize_mws_2d(nest);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(simulate_transformed(nest, res->transform).mws_total, 1);
}

TEST(Paper, Sec4_Example8_Distances) {
  // "The distance vectors for this loop are: (3,-2); (2,0); (5,-2)".
  auto ds = analyze_dependences(codes::example_8()).distance_vectors(false);
  ASSERT_EQ(ds.size(), 3u);
}

TEST(Paper, Sec4_Example8_LiPingaliRowsIllegal) {
  // "(2,5).(3,-2) < 0" and "(-2,5).(2,0) < 0".
  EXPECT_LT(IntVec({2, 5}).dot(IntVec{3, -2}), 0);
  EXPECT_LT(IntVec({-2, 5}).dot(IntVec{2, 0}), 0);
}

TEST(Paper, Sec4_Example8_WindowFiftyToTwentyOne) {
  // "The maximum window size is 50" (eq. 2 estimate) and "Applying T
  // reduces the maximum window size to 21".
  LoopNest nest = codes::example_8();
  EXPECT_EQ(mws2_estimate(IntVec{2, 5}, nest.bounds(), 1, 0), Rational(50));
  auto res = minimize_mws_2d(nest);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(simulate_transformed(nest, res->transform).mws_total, 21);
}

TEST(Paper, Sec42_WorkedExample_EstimateTwentyTwo) {
  // "a=2, b=3 is an optimal solution, giving a minimum MWS estimate of 22
  // which is very close to the actual minimum MWS which is 21."
  auto res = minimize_mws_2d(codes::example_8());
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->transform.row(0), (IntVec{2, 3}));
  EXPECT_EQ(res->predicted_mws, Rational(22));
}

TEST(Paper, Sec42_LegalityConstraints) {
  // "3a-2b >= 0, 2a >= 0, 5a-2b >= 0" for row (2,3).
  EXPECT_GE(3 * 2 - 2 * 3, 0);
  EXPECT_GE(2 * 2, 0);
  EXPECT_GE(5 * 2 - 2 * 3, 0);
  auto deps = analyze_dependences(codes::example_8()).distance_vectors(true);
  IntMat t{{2, 3}, {1, 1}};
  EXPECT_TRUE(is_tileable(t, deps));
}

TEST(Paper, Sec43_Example10_Window540) {
  // "the maximum window size is: MWS = 1(30-3)(20-3) + 3(30-3) = 540".
  LoopNest nest = codes::example_5();
  EXPECT_EQ(mws3_paper(IntVec{1, 3, -3}, nest.bounds()) - 1, 540);
  EXPECT_EQ(simulate(nest).mws_total, 540);
}

TEST(Paper, Sec43_Example10_ReuseLevelOneToThree) {
  // "the reuse vector initially is (1,3,-3) whose level is 1 ... after the
  // transformation the reuse vector becomes (0,0,1) whose level is 3".
  EXPECT_EQ(IntVec({1, 3, -3}).level(), 1);
  auto t = embedding_transform(codes::example_5(), 0);
  ASSERT_TRUE(t.has_value());
  IntVec tv = ((*t) * IntVec{1, 3, -3}).primitive();
  EXPECT_EQ(tv, (IntVec{0, 0, 1}));
  EXPECT_EQ(tv.level(), 3);
}

TEST(Paper, Sec32_Example6_BoundsParallelPath) {
  // The published Example 6 numbers (UB 191 / LB 179 / actual within
  // bounds) must pin the oracle when several requests run it at once, as
  // the batch fan-out and the serve workers do.
  NonUniformBounds b = nonuniform_bounds(codes::example_6(), 0);
  EXPECT_EQ(b.upper, 191);
  EXPECT_EQ(b.lower_paper, 179);
  Int serial = simulate(codes::example_6()).distinct_total;
  std::vector<Int> concurrent = parallel_map<Int>(4, 4, [](Int) {
    return simulate(codes::example_6()).distinct_total;
  });
  for (Int parallel : concurrent) {
    EXPECT_EQ(parallel, serial);
    EXPECT_GE(parallel, b.lower_paper);
    EXPECT_LE(parallel, b.upper);
  }
}

TEST(Paper, Sec43_Example10_Window540ParallelPath) {
  // Example 10's MWS (540) and the Section 4.2 search numbers (row (2,3),
  // estimate 22) computed side by side on concurrent threads -- the
  // published values pin both, whatever else runs at the same time.
  LoopNest ex10 = codes::example_5();
  LoopNest ex8 = codes::example_8();
  auto serial = minimize_mws_2d(ex8);
  ASSERT_TRUE(serial.has_value());
  std::vector<std::optional<MinimizerResult>> searches =
      parallel_map<std::optional<MinimizerResult>>(4, 4, [&](Int) {
        return minimize_mws_2d(ex8);
      });
  std::vector<Int> windows = parallel_map<Int>(
      4, 4, [&](Int) { return simulate(ex10).mws_total; });
  for (Int w : windows) EXPECT_EQ(w, 540);
  for (const auto& res : searches) {
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->transform.row(0), (IntVec{2, 3}));
    EXPECT_EQ(res->predicted_mws, Rational(22));
    EXPECT_EQ(res->candidates, serial->candidates);
    EXPECT_EQ(res->transform, serial->transform);
  }
}

TEST(Paper, Sec5_Figure2_MatmultRow) {
  // matmult: default 768 (= 3 * 16^2), MWS 273 before AND after (64.4%).
  LoopNest nest = codes::kernel_matmult(16);
  EXPECT_EQ(nest.default_memory(), 768);
  EXPECT_EQ(simulate(nest).mws_total, 273);
  OptimizeResult res = optimize_locality(nest);
  EXPECT_EQ(simulate_transformed(nest, res.transform).mws_total, 273);
}

TEST(Paper, SymbolicClosedFormsReproducePublishedNumbers) {
  // The symbolic path (src/symbolic) must evaluate to the same published
  // numbers the concrete estimators/oracle pin above -- and, being
  // bound-independent, extend them to other instantiations for free.
  {
    // Section 3.1, Example 2: reuse (N1-1)(N2-2) = 72 at 10x10.
    SymbolicResult r = symbolic_analysis(codes::example_2(10, 10));
    ASSERT_TRUE(r.reuse_total.has_value());
    EXPECT_EQ(r.reuse_total->eval({10, 10}), 72);
    EXPECT_EQ(r.reuse_total->eval({100, 50}), 99 * 48);
  }
  {
    // Section 3.1, Example 3: the paper's pairwise sum estimates reuse
    // 90+90+81 = 261 hence distinct 139, over-counting the corner overlap
    // of the four offsets.  The symbolic path is exact by contract, so it
    // must land on the oracle's 121 (= 11*11) instead -- the published
    // estimate stays pinned by Sec31_Example3_Reuse261_Distinct139 above.
    SymbolicResult r = symbolic_analysis(codes::example_3());
    ASSERT_TRUE(r.reuse_total.has_value());
    ASSERT_TRUE(r.distinct_total.has_value());
    EXPECT_EQ(r.distinct_total->eval({10, 10}),
              simulate(codes::example_3()).distinct_total);
    EXPECT_EQ(r.distinct_total->eval({10, 10}), 121);
    EXPECT_EQ(r.reuse_total->eval({10, 10}), 400 - 121);
  }
  {
    // Section 3.2, Example 4: reuse (20-5)(10-2) = 120, distinct 80.
    SymbolicResult r = symbolic_analysis(codes::example_4());
    ASSERT_TRUE(r.reuse_total.has_value());
    ASSERT_TRUE(r.distinct_total.has_value());
    EXPECT_EQ(r.reuse_total->eval({20, 10}), 120);
    EXPECT_EQ(r.distinct_total->eval({20, 10}), 80);
  }
  {
    // Sections 3.2 and 4.3, Example 5 / Example 10: reuse 4131, distinct
    // 1869, and the window formula value 540.
    SymbolicResult r = symbolic_analysis(codes::example_5());
    ASSERT_TRUE(r.reuse_total.has_value());
    ASSERT_TRUE(r.distinct_total.has_value());
    ASSERT_TRUE(r.window_total.has_value());
    EXPECT_EQ(r.reuse_total->eval({10, 20, 30}), 4131);
    EXPECT_EQ(r.distinct_total->eval({10, 20, 30}), 1869);
    EXPECT_EQ(r.window_total->eval({10, 20, 30}), 540);
  }
  {
    // Section 4.2, Example 8 under T = [[2,3],[1,1]]: the eq. (2) window
    // estimate evaluates to the published 22.
    SymbolicResult r = symbolic_analysis_transformed(codes::example_8(),
                                                     IntMat{{2, 3}, {1, 1}});
    ASSERT_TRUE(r.window_estimate.has_value());
    EXPECT_NE(r.window_estimate->find("= 22 (estimate)"), std::string::npos)
        << *r.window_estimate;
  }
}

TEST(Paper, Sec5_Figure2_AverageReductionsLarge) {
  // "estimating the memory consumption of the original codes indicates a
  // 81.9% saving, and that for the optimized codes brings about an average
  // saving of 92.3%" -- our suite reproduces the shape: both averages are
  // large and the optimized one dominates.
  double sum_unopt = 0, sum_opt = 0;
  auto suite = codes::figure2_suite();
  for (auto& entry : suite) {
    Int def = entry.nest.default_memory();
    Int unopt = simulate(entry.nest).mws_total;
    OptimizeResult res = optimize_locality(entry.nest);
    Int opt = simulate_transformed(entry.nest, res.transform).mws_total;
    sum_unopt += 1.0 - static_cast<double>(unopt) / static_cast<double>(def);
    sum_opt += 1.0 - static_cast<double>(opt) / static_cast<double>(def);
  }
  double avg_unopt = sum_unopt / suite.size();
  double avg_opt = sum_opt / suite.size();
  EXPECT_GT(avg_unopt, 0.70);  // paper: 81.9%
  EXPECT_GT(avg_opt, 0.80);    // paper: 92.3%
  EXPECT_GE(avg_opt, avg_unopt);
}

}  // namespace
}  // namespace lmre
