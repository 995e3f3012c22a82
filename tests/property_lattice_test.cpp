// Differential suite for the dependence-lattice search: the echelon
// first-point search must return exactly the lex-min positive member of
// the brute-force enumeration of every realizable solution, for both
// orientations of each reference pair.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "dependence/lattice.h"
#include "lattice_reference.h"

namespace lmre {
namespace {

std::string show(const std::optional<IntVec>& d) {
  return d ? d->str() : "none";
}

// Random access matrix of depth `n` with exactly rank `rank`, entries in
// [-3, 3]: `rank` independent random rows, sometimes followed by the
// negation of one of them, as in references that repeat a subscript.
// Rank 0 is a single zero row.
IntMat random_access(std::mt19937_64& rng, size_t n, size_t rank) {
  std::uniform_int_distribution<Int> entry(-3, 3);
  if (rank == 0) return IntMat(1, n);
  for (;;) {
    std::vector<IntVec> rows(rank, IntVec(n));
    for (auto& row : rows)
      for (size_t c = 0; c < n; ++c) row[c] = entry(rng);
    if (IntMat::from_rows(rows).rank() != rank) continue;
    if (rng() % 3 == 0) rows.push_back(-rows[rng() % rank]);
    return IntMat::from_rows(rows);
  }
}

TEST(LatticeDifferential, LexminMatchesBruteForceMinimum) {
  std::mt19937_64 rng(20);
  std::uniform_int_distribution<Int> trip(1, 12), shift(-6, 6);
  int found = 0, absent = 0, zero_rhs = 0, one_trip = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const size_t n = 1 + static_cast<size_t>(rng() % 4);
    const size_t rank = static_cast<size_t>(rng() % (n + 1));
    IntMat a = random_access(rng, n, rank);

    std::vector<Int> uppers(n);
    for (auto& u : uppers) u = trip(rng);
    if (iter % 4 == 0) {
      uppers[static_cast<size_t>(rng() % n)] = 1;
    }
    for (Int u : uppers) one_trip += u == 1;
    IntBox box = IntBox::from_upper_bounds(uppers);

    // c == A * delta is always solvable; every fifth draw takes c == 0
    // (self pairs), every seventh perturbs c so that it may not be.
    IntVec delta(n);
    if (iter % 5 != 0) {
      for (size_t k = 0; k < n; ++k) delta[k] = shift(rng);
    }
    IntVec c = a * delta;
    if (iter % 7 == 3) c[0] = checked_add(c[0], 1);
    zero_rhs += c.is_zero();

    SCOPED_TRACE("iter " + std::to_string(iter) + " A = " + a.str() +
                 " c = " + c.str() + " box = " + box.str());
    LexminPair got = lexmin_positive_solutions(a, c, box);
    std::optional<IntVec> forward = test::brute_lexmin_positive(a, c, box);
    std::optional<IntVec> backward = test::brute_lexmin_positive(a, -c, box);
    EXPECT_EQ(got.forward, forward)
        << show(got.forward) << " vs brute " << show(forward);
    EXPECT_EQ(got.backward, backward)
        << show(got.backward) << " vs brute " << show(backward);
    (forward ? found : absent) += 1;
  }
  // The sweep exercised every branch it is meant to cover.
  EXPECT_GT(found, 200);
  EXPECT_GT(absent, 30);
  EXPECT_GT(zero_rhs, 60);
  EXPECT_GT(one_trip, 100);
}

TEST(LatticeDifferential, KernelFreeAndFullKernelCorners) {
  // Injective access: the single solution, when realizable and positive.
  IntBox box = IntBox::from_upper_bounds({4, 4});
  IntMat id{{1, 0}, {0, 1}};
  LexminPair p = lexmin_positive_solutions(id, IntVec{0, 3}, box);
  EXPECT_EQ(p.forward, (IntVec{0, 3}));
  EXPECT_FALSE(p.backward.has_value());  // (0, -3) is not positive
  p = lexmin_positive_solutions(id, IntVec{4, 0}, box);  // |4| > trip - 1
  EXPECT_FALSE(p.forward.has_value());
  EXPECT_FALSE(p.backward.has_value());

  // Zero access: every realizable vector is a solution of A d == 0.
  p = lexmin_positive_solutions(IntMat{{0, 0}}, IntVec{0}, box);
  EXPECT_EQ(p.forward, (IntVec{0, 1}));
  EXPECT_EQ(p.backward, (IntVec{0, 1}));
  // ... unless the innermost level has one trip.
  p = lexmin_positive_solutions(IntMat{{0, 0}}, IntVec{0},
                                IntBox::from_upper_bounds({4, 1}));
  EXPECT_EQ(p.forward, (IntVec{1, 0}));

  // No integer solution at all.
  p = lexmin_positive_solutions(IntMat{{2, 4}}, IntVec{3}, box);
  EXPECT_FALSE(p.forward.has_value());
  EXPECT_FALSE(p.backward.has_value());
}

}  // namespace
}  // namespace lmre
