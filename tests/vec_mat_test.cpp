#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "linalg/mat.h"
#include "linalg/vec.h"
#include "support/error.h"

namespace lmre {
namespace {

TEST(IntVec, BasicArithmetic) {
  IntVec a{1, 2, 3}, b{4, -5, 6};
  EXPECT_EQ(a + b, (IntVec{5, -3, 9}));
  EXPECT_EQ(a - b, (IntVec{-3, 7, -3}));
  EXPECT_EQ(-a, (IntVec{-1, -2, -3}));
  EXPECT_EQ(a * 3, (IntVec{3, 6, 9}));
  EXPECT_EQ(a.dot(b), 4 - 10 + 18);
}

TEST(IntVec, SizeMismatchThrows) {
  IntVec a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(a + b, InvalidArgument);
  EXPECT_THROW(a.dot(b), InvalidArgument);
}

TEST(IntVec, LexOrder) {
  EXPECT_TRUE((IntVec{0, 1}).lex_positive());
  EXPECT_TRUE((IntVec{1, -5}).lex_positive());
  EXPECT_FALSE((IntVec{-1, 5}).lex_positive());
  EXPECT_FALSE((IntVec{0, 0}).lex_positive());
  EXPECT_TRUE((IntVec{1, 2}).lex_less(IntVec{1, 3}));
  EXPECT_TRUE((IntVec{0, 9}).lex_less(IntVec{1, 0}));
  EXPECT_FALSE((IntVec{1, 3}).lex_less(IntVec{1, 3}));
}

TEST(IntVec, LevelIsFirstNonzeroOneBased) {
  EXPECT_EQ((IntVec{3, 2}).level(), 1);
  EXPECT_EQ((IntVec{0, 2, 0}).level(), 2);
  EXPECT_EQ((IntVec{0, 0, -1}).level(), 3);
  EXPECT_EQ((IntVec{0, 0}).level(), 0);
}

TEST(IntVec, ContentAndPrimitive) {
  EXPECT_EQ((IntVec{6, -9, 12}).content(), 3);
  EXPECT_EQ((IntVec{6, -9, 12}).primitive(), (IntVec{2, -3, 4}));
  EXPECT_EQ((IntVec{0, 0}).content(), 0);
  EXPECT_EQ((IntVec{0, 0}).primitive(), (IntVec{0, 0}));
}

TEST(IntVec, Str) {
  EXPECT_EQ((IntVec{3, -2}).str(), "(3, -2)");
}

TEST(IntMat, ConstructionAndAccess) {
  IntMat m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 6);
  EXPECT_EQ(m.row(0), (IntVec{1, 2, 3}));
  EXPECT_EQ(m.col(1), (IntVec{2, 5}));
  EXPECT_THROW(m.at(2, 0), InvalidArgument);
  EXPECT_THROW((IntMat{{1, 2}, {3}}), InvalidArgument);
}

TEST(IntMat, Multiply) {
  IntMat a{{1, 2}, {3, 4}};
  IntMat b{{0, 1}, {1, 0}};
  EXPECT_EQ(a * b, (IntMat{{2, 1}, {4, 3}}));
  EXPECT_EQ(a * (IntVec{1, 1}), (IntVec{3, 7}));
  EXPECT_EQ(IntMat::identity(2) * a, a);
}

TEST(IntMat, Transpose) {
  IntMat a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a.transposed(), (IntMat{{1, 4}, {2, 5}, {3, 6}}));
}

TEST(IntMat, Determinant) {
  EXPECT_EQ((IntMat{{2, 5}, {1, 3}}).determinant(), 1);
  EXPECT_EQ((IntMat{{2, 3}, {1, 1}}).determinant(), -1);
  EXPECT_EQ((IntMat{{1, 2}, {2, 4}}).determinant(), 0);
  EXPECT_EQ(IntMat::identity(4).determinant(), 1);
  // 3x3 with a known determinant (expand along the last row: -1).
  EXPECT_EQ((IntMat{{3, 0, 1}, {0, 1, 1}, {1, 0, 0}}).determinant(), -1);
  EXPECT_THROW((IntMat{{1, 2, 3}, {4, 5, 6}}).determinant(), InvalidArgument);
}

TEST(IntMat, DeterminantLargerMatrix) {
  // det of a 4x4 via a triangular-ish construction: product of diagonal.
  IntMat m{{2, 1, 0, 3}, {0, -3, 1, 1}, {0, 0, 5, -2}, {0, 0, 0, 7}};
  EXPECT_EQ(m.determinant(), 2 * -3 * 5 * 7);
}

TEST(IntMat, Rank) {
  EXPECT_EQ((IntMat{{1, 2}, {2, 4}}).rank(), 1u);
  EXPECT_EQ((IntMat{{1, 2}, {3, 4}}).rank(), 2u);
  EXPECT_EQ((IntMat{{3, 0, 1}, {0, 1, 1}}).rank(), 2u);
  EXPECT_EQ((IntMat{{0, 0}, {0, 0}}).rank(), 0u);
}

TEST(IntMat, UnimodularInverse) {
  IntMat t{{2, 3}, {1, 1}};  // det -1 (Example 8's transformation)
  ASSERT_TRUE(t.is_unimodular());
  IntMat inv = t.inverse_unimodular();
  EXPECT_EQ(t * inv, IntMat::identity(2));
  EXPECT_EQ(inv * t, IntMat::identity(2));
}

TEST(IntMat, UnimodularInverse3x3) {
  IntMat t{{3, 0, 1}, {0, 1, 1}, {1, 0, 0}};
  ASSERT_TRUE(t.is_unimodular());
  EXPECT_EQ(t * t.inverse_unimodular(), IntMat::identity(3));
}

TEST(IntMat, NonUnimodularInverseThrows) {
  EXPECT_THROW((IntMat{{2, 0}, {0, 2}}).inverse_unimodular(), InvalidArgument);
}

TEST(IntMat, AdjugateIdentity) {
  IntMat m{{4, 7}, {2, 6}};
  IntMat adj = m.adjugate();
  IntMat prod = m * adj;
  Int det = m.determinant();
  EXPECT_EQ(prod, IntMat::identity(2) * det);
}

TEST(IntMat, MinorMatrix) {
  IntMat m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  EXPECT_EQ(m.minor_matrix(1, 1), (IntMat{{1, 3}, {7, 9}}));
}

TEST(IntMat, FromRows) {
  IntMat m = IntMat::from_rows({IntVec{1, 2}, IntVec{3, 4}});
  EXPECT_EQ(m, (IntMat{{1, 2}, {3, 4}}));
}

TEST(IntMat, Str) {
  EXPECT_EQ((IntMat{{2, 3}, {1, 1}}).str(), "[2 3; 1 1]");
}

// ---- inline storage across the inline/heap boundary ------------------------

// 1..n as an IntVec (n past IntVec::kInline lives on the heap).
IntVec iota_vec(size_t n) {
  IntVec v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<Int>(i) + 1;
  return v;
}

TEST(InlineStorage, ObjectsAreTheLengthsPlusTheInlineBuffer) {
  // The inline buffer shares its bytes with the heap pointer: containers of
  // IntVec grow by the buffer only.
  EXPECT_EQ(sizeof(IntVec), sizeof(size_t) + IntVec::kInline * sizeof(Int));
  EXPECT_EQ(sizeof(IntMat), 3 * sizeof(size_t) + IntMat::kInline * sizeof(Int));
}

TEST(InlineStorage, VectorCopyMoveAndCompareAcrossTheBoundary) {
  for (size_t n : {size_t{0}, size_t{1}, IntVec::kInline - 1, IntVec::kInline,
                   IntVec::kInline + 1, size_t{16}, size_t{33}}) {
    SCOPED_TRACE(n);
    const IntVec a = iota_vec(n);
    IntVec copy = a;
    EXPECT_EQ(copy, a);
    EXPECT_EQ(copy.to_vector(), a.to_vector());
    if (n > 0) {
      copy[n - 1] = -7;  // a deep copy: the source keeps its value
      EXPECT_NE(copy, a);
      EXPECT_EQ(a[n - 1], static_cast<Int>(n));
    }
    IntVec moved = std::move(copy);
    EXPECT_EQ(moved.size(), n);
    if (n > 0) {
      EXPECT_EQ(moved[n - 1], -7);
    }
    // Assignment in every direction: inline <- heap, heap <- inline, and
    // equal lengths (no reallocation).
    for (size_t m : {size_t{2}, IntVec::kInline + 1, n}) {
      IntVec b = iota_vec(m);
      b = a;
      EXPECT_EQ(b, a);
      IntVec c = iota_vec(m);
      c = IntVec(a);
      EXPECT_EQ(c, a);
    }
    IntVec self = a;
    const IntVec& alias = self;
    self = alias;
    EXPECT_EQ(self, a);
    EXPECT_EQ(a + a, a * 2);
    EXPECT_EQ((a - a).is_zero(), true);
    EXPECT_EQ(IntVec(a.to_vector()), a);
  }
}

TEST(InlineStorage, DeepVectorArithmeticMatchesStdVector) {
  const size_t n = 12;
  const IntVec a = iota_vec(n);
  const IntVec b = a * -3;
  std::vector<Int> sum(n);
  for (size_t i = 0; i < n; ++i) sum[i] = a[i] + b[i];
  EXPECT_EQ((a + b).to_vector(), sum);
  EXPECT_EQ(a.dot(b), -3 * a.dot(a));
  EXPECT_EQ((IntVec{0, 0, 0, 0, 0, 0, 0, 0, 0, 4}).level(), 10);
  EXPECT_EQ((b * 2).primitive(), -a);
}

TEST(InlineStorage, MatrixCopyMoveAndCompareAcrossTheBoundary) {
  for (size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{9}}) {
    SCOPED_TRACE(n);
    IntMat t = IntMat::identity(n);
    if (n > 1) t(0, n - 1) = 2;  // unimodular: a unit diagonal, one entry above
    IntMat copy = t;
    EXPECT_EQ(copy, t);
    copy(n - 1, 0) = 5;
    EXPECT_NE(copy, t);
    IntMat moved = std::move(copy);
    EXPECT_EQ(moved(n - 1, 0), 5);
    IntMat assigned = IntMat::identity(2);
    assigned = t;
    EXPECT_EQ(assigned, t);
    assigned = IntMat::identity(2);
    EXPECT_EQ(assigned, IntMat::identity(2));
    EXPECT_EQ(t * t.inverse_unimodular(), IntMat::identity(n));
    EXPECT_EQ(t.transposed().transposed(), t);
    EXPECT_EQ((t + t) - t, t);
    EXPECT_EQ(t * iota_vec(n), (t * IntMat::from_rows({iota_vec(n)}).transposed()).col(0));
  }
}

TEST(InlineStorage, OrderMatchesStdVectorOrder) {
  // Mixed lengths (proper prefixes included) on both sides of the inline
  // capacity: a map keyed on IntVec iterates as one keyed on std::vector.
  std::mt19937 rng(20260);
  std::uniform_int_distribution<int> len(0, 11), val(-2, 2);
  std::vector<IntVec> vecs;
  for (int i = 0; i < 400; ++i) {
    IntVec v(static_cast<size_t>(len(rng)));
    for (size_t k = 0; k < v.size(); ++k) v[k] = val(rng);
    vecs.push_back(v);
  }
  std::map<IntVec, int> by_intvec;
  std::map<std::vector<Int>, int> by_vector;
  for (size_t i = 0; i < vecs.size(); ++i) {
    for (size_t j = 0; j < vecs.size(); ++j) {
      ASSERT_EQ(vecs[i] < vecs[j], vecs[i].to_vector() < vecs[j].to_vector())
          << vecs[i].str() << " vs " << vecs[j].str();
    }
    by_intvec.emplace(vecs[i], static_cast<int>(i));
    by_vector.emplace(vecs[i].to_vector(), static_cast<int>(i));
  }
  ASSERT_EQ(by_intvec.size(), by_vector.size());
  auto it = by_vector.begin();
  for (const auto& [key, id] : by_intvec) {
    EXPECT_EQ(key.to_vector(), it->first);
    EXPECT_EQ(id, it->second);
    ++it;
  }
  EXPECT_EQ(std::hash<IntVec>()(iota_vec(9)), std::hash<IntVec>()(iota_vec(9)));
}

}  // namespace
}  // namespace lmre
