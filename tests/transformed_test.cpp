#include <gtest/gtest.h>

#include <map>

#include "codes/examples.h"
#include "exact/oracle.h"
#include "polyhedra/scanner.h"
#include "support/error.h"
#include "transform/transformed.h"
#include "transform/unimodular.h"

namespace lmre {
namespace {

TEST(Transformed, RejectsBadTransforms) {
  LoopNest nest = codes::example_8();
  EXPECT_THROW(TransformedNest(nest, IntMat{{2, 0}, {0, 1}}), InvalidArgument);
  EXPECT_THROW(TransformedNest(nest, IntMat::identity(3)), InvalidArgument);
}

TEST(Transformed, SpaceHasSameVolume) {
  LoopNest nest = codes::example_8();  // 25 x 10
  TransformedNest tn(nest, IntMat{{2, 3}, {1, 1}});
  EXPECT_EQ(count_points(tn.space()), nest.iteration_count());
}

TEST(Transformed, SpaceIsImageOfBox) {
  LoopNest nest = codes::example_2(4, 5);
  IntMat t{{1, 1}, {0, 1}};
  TransformedNest tn(nest, t);
  ConstraintSystem space = tn.space();
  // Every T*i for i in the box is in the space, and scanning maps back.
  scan(nest.bounds().to_constraints(), [&](const IntVec& i) {
    EXPECT_TRUE(space.contains(t * i));
  });
  scan(space, [&](const IntVec& u) {
    EXPECT_TRUE(nest.bounds().contains(tn.inverse() * u));
  });
}

TEST(Transformed, RefAccessComposedWithInverse) {
  LoopNest nest = codes::example_8();
  IntMat t{{2, 3}, {1, 1}};
  TransformedNest tn(nest, t);
  ArrayRef orig = nest.all_refs()[0];
  ArrayRef tr = tn.transformed_ref(orig);
  // For any iteration i, the transformed ref at u = T i touches the same
  // element.
  for (Int i = 1; i <= 5; ++i) {
    for (Int j = 1; j <= 5; ++j) {
      IntVec it{i, j};
      EXPECT_EQ(orig.index_at(it), tr.index_at(t * it));
    }
  }
}

TEST(Transformed, MaxspanInnerExactExample8) {
  // Row (2,3) over 25x10: rational maxspan 9/2 -> integer spans <= 4.
  LoopNest nest = codes::example_8();
  TransformedNest tn(nest, IntMat{{2, 3}, {1, 1}});
  EXPECT_LE(tn.maxspan_inner(), 4);
  EXPECT_GE(tn.maxspan_inner(), 3);
}

TEST(Transformed, MaxspanIdentity) {
  LoopNest nest = codes::example_8();
  TransformedNest tn(nest, IntMat::identity(2));
  EXPECT_EQ(tn.maxspan_inner(), 9);  // inner loop j spans 10 iterations
}

TEST(Transformed, SimulateAgreesWithFreeFunction) {
  LoopNest nest = codes::example_8();
  IntMat t{{2, 3}, {1, 1}};
  TraceStats a = TransformedNest(nest, t).simulate();
  TraceStats b = simulate_transformed(nest, t);
  EXPECT_EQ(a.mws_total, b.mws_total);
  EXPECT_EQ(a.distinct_total, b.distinct_total);
}

TEST(Transformed, AddressMultisetPreserved) {
  // The transformed execution touches exactly the same elements the same
  // number of times, just in a different order.
  LoopNest nest = codes::example_2(6, 7);
  IntMat t{{1, 2}, {0, 1}};
  std::map<std::vector<Int>, int> orig_counts, tr_counts;
  scan(nest.bounds().to_constraints(), [&](const IntVec& i) {
    for (const auto& r : nest.all_refs()) orig_counts[r.index_at(i).to_vector()]++;
  });
  TransformedNest tn(nest, t);
  scan(tn.space(), [&](const IntVec& u) {
    IntVec i = tn.inverse() * u;
    for (const auto& r : nest.all_refs()) tr_counts[r.index_at(i).to_vector()]++;
  });
  EXPECT_EQ(orig_counts, tr_counts);
}

TEST(Transformed, PrintShowsBounds) {
  LoopNest nest = codes::example_8();
  TransformedNest tn(nest, IntMat{{2, 3}, {1, 1}});
  std::string s = tn.print();
  EXPECT_NE(s.find("for (u0"), std::string::npos);
  EXPECT_NE(s.find("ceild"), std::string::npos);
  EXPECT_NE(s.find("floord"), std::string::npos);
  EXPECT_NE(s.find("X["), std::string::npos);
}

TEST(Transformed, PrintIdentityHasPlainBounds) {
  LoopNest nest = codes::example_2(4, 5);
  TransformedNest tn(nest, IntMat::identity(2));
  std::string s = tn.print();
  EXPECT_EQ(s.find("ceild"), std::string::npos);
  EXPECT_NE(s.find("u0 <= 4"), std::string::npos);
}

TEST(Transformed, InterchangePrint) {
  LoopNest nest = codes::example_2(4, 5);
  TransformedNest tn(nest, interchange(2, 0, 1));
  std::string s = tn.print();
  // After interchange the outer loop (u0 = j) runs to 5.
  EXPECT_NE(s.find("u0 <= 5"), std::string::npos);
  EXPECT_NE(s.find("u1 <= 4"), std::string::npos);
}

}  // namespace
}  // namespace lmre
