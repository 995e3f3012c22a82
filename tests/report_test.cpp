#include <gtest/gtest.h>

#include "analysis/report.h"
#include "analysis/window.h"
#include "codes/examples.h"
#include "codes/kernels.h"
#include "ir/parser.h"
#include "nest_corpus.h"

namespace lmre {
namespace {

TEST(Report, Example8EndToEnd) {
  MemoryReport rep = analyze_memory(codes::example_8());
  EXPECT_EQ(rep.default_memory, 106);
  EXPECT_EQ(rep.distinct_estimate_total, 94);
  ASSERT_TRUE(rep.distinct_exact_total.has_value());
  EXPECT_EQ(*rep.distinct_exact_total, 94);
  ASSERT_TRUE(rep.mws_estimate_total.has_value());
  EXPECT_EQ(*rep.mws_estimate_total, 50);
  ASSERT_TRUE(rep.mws_exact_total.has_value());
  EXPECT_EQ(*rep.mws_exact_total, 44);
  ASSERT_EQ(rep.arrays.size(), 1u);
  EXPECT_EQ(rep.arrays[0].name, "X");
}

TEST(Report, WithoutOracleSkipsExactColumns) {
  MemoryReport rep = analyze_memory(codes::example_8(), /*with_oracle=*/false);
  EXPECT_FALSE(rep.distinct_exact_total.has_value());
  EXPECT_FALSE(rep.mws_exact_total.has_value());
  EXPECT_FALSE(rep.arrays[0].distinct_exact.has_value());
  EXPECT_EQ(rep.distinct_estimate_total, 94);
}

TEST(Report, NonUniformArrayGetsBounds) {
  MemoryReport rep = analyze_memory(codes::example_6());
  ASSERT_EQ(rep.arrays.size(), 1u);
  EXPECT_FALSE(rep.arrays[0].distinct_estimate.has_value());
  ASSERT_TRUE(rep.arrays[0].distinct_upper.has_value());
  EXPECT_EQ(*rep.arrays[0].distinct_upper, 191);
  EXPECT_EQ(*rep.arrays[0].distinct_lower, 179);
  EXPECT_EQ(rep.distinct_estimate_total, 191);
}

TEST(Report, MultipleArrays) {
  MemoryReport rep = analyze_memory(codes::kernel_matmult(8));
  EXPECT_EQ(rep.arrays.size(), 3u);
  Int sum = 0;
  for (const auto& a : rep.arrays) {
    ASSERT_TRUE(a.distinct_exact.has_value());
    sum += *a.distinct_exact;
    EXPECT_EQ(a.declared, 64);
    EXPECT_EQ(*a.distinct_exact, 64);
  }
  EXPECT_EQ(rep.distinct_exact_total, sum);
}

TEST(Report, RenderContainsHeaderAndTotal) {
  std::string s = render(analyze_memory(codes::example_8()));
  EXPECT_NE(s.find("array"), std::string::npos);
  EXPECT_NE(s.find("MWS est"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
  EXPECT_NE(s.find("X"), std::string::npos);
}

TEST(Report, RenderShowsBoundsForNonUniform) {
  std::string s = render(analyze_memory(codes::example_6()));
  EXPECT_NE(s.find("[179, 191]"), std::string::npos);
}

TEST(Report, MwsTotalAtLeastMaxOfArrays) {
  MemoryReport rep = analyze_memory(codes::kernel_matmult(8));
  ASSERT_TRUE(rep.mws_exact_total.has_value());
  for (const auto& a : rep.arrays) {
    ASSERT_TRUE(a.mws_exact.has_value());
    EXPECT_GE(*rep.mws_exact_total, *a.mws_exact);
  }
}

// report_from sums the per-array estimates it already holds; the sum must
// be estimate_mws_total's value whenever every array has an estimate.
TEST(Report, SummedMwsTotalMatchesEstimateMwsTotal) {
  std::vector<test::NamedNest> corpus = test::nest_corpus();
  corpus.emplace_back("example6", codes::example_6());
  // A is uniformly generated, B is not: B has no window formula.
  corpus.emplace_back("mixed", parse_nest("array A[20]; array B[40];\n"
                                          "for i = 1 to 8\n  for j = 1 to 6\n"
                                          "    A[i + j] = B[2*i + j] + B[i + 3*j] + A[i + j - 1];\n"));
  int without_total = 0;
  for (const auto& [name, nest] : corpus) {
    SCOPED_TRACE(name);
    MemoryReport rep = analyze_memory(nest, /*with_oracle=*/false);
    bool every_array_estimated = true;
    size_t k = 0;
    for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
      if (nest.refs_to(id).empty()) continue;
      ASSERT_LT(k, rep.arrays.size());
      EXPECT_EQ(rep.arrays[k].name, nest.array(id).name);
      EXPECT_EQ(rep.arrays[k].mws_estimate, estimate_mws_array(nest, id));
      if (!rep.arrays[k].mws_estimate) every_array_estimated = false;
      ++k;
    }
    EXPECT_EQ(k, rep.arrays.size());
    if (every_array_estimated) {
      EXPECT_EQ(rep.mws_estimate_total, estimate_mws_total(nest));
    } else {
      EXPECT_FALSE(rep.mws_estimate_total.has_value());
      ++without_total;
    }
  }
  EXPECT_GE(without_total, 2);  // example6 and mixed
}

}  // namespace
}  // namespace lmre
