// Differential suite for the prover's lattice search spaces
// (src/verify/search.h).  Every query the legality prover asks of a
// uniformly generated pair -- a reversal branch at (p, q), a negative row
// component, a carry at some level, under the identity and a random
// unimodular schedule -- runs twice: on lattice_space (the kernel
// coordinates t of d = p + H t) and on a reference space in d itself, built
// here as the prover built it before the lattice (n variables, A d == c as
// equality rows, |d_k| <= trip_k - 1).  Wherever the reference search
// completes, the lattice search must complete too and return the same
// iteration pair, hence the same lex-min d.

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nest_corpus.h"
#include "verify/search.h"

namespace lmre {
namespace {

constexpr Int kBudget = 1'000'000;

// The d-space search of a uniform pair: d itself as the variables, the
// element equality A d == b_src - b_dst as equality rows.
SearchSpace reference_space(const ArrayRef& src, const ArrayRef& dst,
                            const IntBox& box) {
  const size_t n = box.dims();
  SearchSpace space;
  space.base = ConstraintSystem(n);
  space.lin = IntMat::identity(n);
  space.offset = IntVec(n);
  for (size_t row = 0; row < src.access.rows(); ++row) {
    space.base.add_equality(AffineExpr(src.access.row(row), 0),
                            checked_sub(src.offset[row], dst.offset[row]));
  }
  for (size_t k = 0; k < n; ++k) {
    Int spread = checked_sub(box.range(k).hi, box.range(k).lo);
    space.base.add_range(AffineExpr::variable(n, k), -spread, spread);
  }
  return space;
}

std::string show(const SearchOutcome& o) {
  std::string s = o.complete ? "complete " : "incomplete ";
  if (!o.witness) return s + "none";
  return s + o.witness->first.str() + " -> " + o.witness->second.str();
}

// Random unimodular matrix: the identity stirred by row swaps, negations
// and shears.
IntMat random_unimodular(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<size_t> row(0, n - 1);
  std::uniform_int_distribution<Int> shear(-2, 2);
  std::uniform_int_distribution<int> op(0, 2), reps(2, 5);
  IntMat m = IntMat::identity(n);
  for (int k = reps(rng); k > 0; --k) {
    size_t r1 = row(rng), r2 = row(rng);
    switch (op(rng)) {
      case 0:
        for (size_t c = 0; c < n; ++c) std::swap(m(r1, c), m(r2, c));
        break;
      case 1:
        for (size_t c = 0; c < n; ++c) m(r1, c) = -m(r1, c);
        break;
      default:
        if (r1 == r2) break;
        Int f = shear(rng);
        for (size_t c = 0; c < n; ++c) m(r1, c) += f * m(r2, c);
        break;
    }
  }
  return m;
}

struct Tally {
  int pairs = 0, kernel0 = 0, kernel2 = 0, unsolvable = 0;
  int queries = 0, witnesses = 0, compared = 0;
};

void expect_same(const SearchOutcome& lattice, const SearchOutcome& ref,
                 const std::string& what, Tally* tally) {
  ++tally->queries;
  if (!ref.complete) return;
  ++tally->compared;
  tally->witnesses += ref.witness.has_value();
  EXPECT_TRUE(lattice.complete) << what << ": " << show(lattice);
  EXPECT_EQ(lattice.witness, ref.witness)
      << what << ": lattice " << show(lattice) << " vs d-space " << show(ref);
}

// Every query of one ordered pair under the schedule t.
void compare_pair(const ArrayRef& src, const ArrayRef& dst, const IntBox& box,
                  const IntMat& t, const std::string& label, Tally* tally) {
  const size_t n = box.dims();
  const SearchSpace lattice = lattice_space(src, dst, box);
  const SearchSpace ref = reference_space(src, dst, box);
  ASSERT_FALSE(lattice.undecided) << label;
  ++tally->pairs;
  if (lattice.dims() == 0) ++tally->kernel0;
  if (lattice.dims() >= 2) ++tally->kernel2;
  if (lattice.dims() == 0 && lattice.base.trivially_empty()) ++tally->unsolvable;

  const std::string where = label + " T = " + t.str();
  auto branch = [&](SearchBranch b, const std::string& name) {
    expect_same(search_branch(lattice, t, b, box, kBudget),
                search_branch(ref, t, b, box, kBudget),
                where + " " + name + " p=" + std::to_string(b.source_level) +
                    " zeros=" + std::to_string(b.zero_rows) +
                    " row=" + std::to_string(b.row),
                tally);
  };
  for (size_t p = 0; p < n; ++p) {
    for (size_t r = 0; r < n; ++r) {
      branch({p, r, r, -1}, "reversal");
      branch({p, 0, r, -1}, "negative row");
      branch({p, r, r, 1}, "carried");
    }
  }
  expect_same(find_reversal(lattice, t, box, kBudget),
              find_reversal(ref, t, box, kBudget), where + " find_reversal",
              tally);
  for (size_t r = 0; r < n; ++r) {
    expect_same(find_negative_component(lattice, t, r, box, kBudget),
                find_negative_component(ref, t, r, box, kBudget),
                where + " find_negative_component " + std::to_string(r), tally);
    expect_same(find_carried(lattice, t, r, box, kBudget),
                find_carried(ref, t, r, box, kBudget),
                where + " find_carried " + std::to_string(r), tally);
  }
}

// Both schedules the prover classifies: the identity and the plan's T.
void compare_both(const ArrayRef& src, const ArrayRef& dst, const IntBox& box,
                  const IntMat& t, const std::string& label, Tally* tally) {
  compare_pair(src, dst, box, IntMat::identity(box.dims()), label, tally);
  compare_pair(src, dst, box, t, label, tally);
}

TEST(VerifyLattice, CorpusPairsMatchTheDistanceSpaceSearch) {
  std::mt19937 rng(0x1A771CE);
  Tally tally;
  for (const auto& [name, nest] : test::nest_corpus()) {
    const std::vector<ArrayRef> refs = nest.all_refs();
    const IntMat t = random_unimodular(rng, nest.depth());
    for (size_t s = 0; s < refs.size(); ++s) {
      for (size_t d = 0; d < refs.size(); ++d) {
        if (!refs[s].uniformly_generated_with(refs[d])) continue;
        compare_both(refs[s], refs[d], nest.bounds(), t,
                     name + " refs " + std::to_string(s) + "," + std::to_string(d),
                     &tally);
      }
    }
  }
  EXPECT_GT(tally.pairs, 500);
  EXPECT_GT(tally.kernel0, 200);
  EXPECT_GT(tally.witnesses, 1000);
  EXPECT_EQ(tally.compared, tally.queries);
}

// Random access matrices of every rank (kernel dimension 0 to n), offsets
// that sometimes leave A d == c without an integer solution, and random
// boxes, some with one-trip levels.
TEST(VerifyLattice, RandomRanksOffsetsAndBoxes) {
  std::mt19937 rng(0xD15C0);
  std::uniform_int_distribution<Int> entry(-3, 3), trip(1, 7), shift(-4, 4);
  Tally tally;
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = 1 + static_cast<size_t>(rng() % 3);
    const size_t rows = 1 + static_cast<size_t>(rng() % n);
    IntMat a(rows, n);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < n; ++c) a(r, c) = entry(rng);
    }
    if (iter % 6 == 0) a = IntMat(rows, n);  // kernel dimension n
    std::vector<Int> uppers(n);
    for (Int& u : uppers) u = trip(rng);
    const IntBox box = IntBox::from_upper_bounds(uppers);

    // b_src - b_dst == A delta is solvable; every fourth draw perturbs it
    // so that it may not be.
    ArrayRef src, dst;
    src.access = dst.access = a;
    src.offset = IntVec(rows);
    IntVec delta(n);
    for (size_t r = 0; r < rows; ++r) src.offset[r] = shift(rng);
    for (size_t k = 0; k < n; ++k) delta[k] = shift(rng);
    dst.offset = src.offset - a * delta;
    if (iter % 4 == 3) dst.offset[0] += 1;
    compare_both(src, dst, box, random_unimodular(rng, n),
                 "iter " + std::to_string(iter) + " A = " + a.str() + " b_src = " +
                     src.offset.str() + " b_dst = " + dst.offset.str() +
                     " box = " + box.str(),
                 &tally);
  }
  EXPECT_GT(tally.kernel0, 100);
  EXPECT_GT(tally.kernel2, 50);
  EXPECT_GT(tally.unsolvable, 50);
  EXPECT_GT(tally.witnesses, 600);
  EXPECT_EQ(tally.compared, tally.queries);
}

TEST(VerifyLattice, KernelCoordinatesAndConstantPairs) {
  const IntBox box = IntBox::from_upper_bounds({8, 6});
  ArrayRef src, dst;

  // A[2i] against A[2i + 1]: no integer distance, so no dependence.  The
  // lattice space is empty over no variables, every search complete.
  src.access = dst.access = IntMat{{2, 0}};
  src.offset = IntVec{0};
  dst.offset = IntVec{1};
  SearchSpace s = lattice_space(src, dst, box);
  EXPECT_EQ(s.dims(), 0u);
  EXPECT_TRUE(s.base.trivially_empty());
  SearchOutcome o = find_reversal(s, IntMat{{-1, 0}, {0, 1}}, box, kBudget);
  EXPECT_TRUE(o.complete);
  EXPECT_FALSE(o.witness.has_value());

  // A[2i][j] against A[2i - 2][j + 1]: the single distance (1, -1), a
  // constant check.  Interchange reverses it; the identity carries it at 1.
  src.access = dst.access = IntMat{{2, 0}, {0, 1}};
  src.offset = IntVec{0, 0};
  dst.offset = IntVec{-2, 1};
  s = lattice_space(src, dst, box);
  EXPECT_EQ(s.dims(), 0u);
  o = find_reversal(s, IntMat{{0, 1}, {1, 0}}, box, kBudget);
  ASSERT_TRUE(o.witness.has_value());
  EXPECT_EQ(o.witness->second - o.witness->first, (IntVec{1, -1}));
  o = find_carried(s, IntMat::identity(2), 0, box, kBudget);
  ASSERT_TRUE(o.witness.has_value());
  EXPECT_EQ(o.witness->first, (IntVec{1, 2}));  // I at the box corner
  EXPECT_EQ(o.witness->second, (IntVec{2, 1}));
  EXPECT_FALSE(find_carried(s, IntMat::identity(2), 1, box, kBudget).witness);

  // A 1-d array in a 2-deep nest: one kernel coordinate, and the lex-min
  // reversal of the interchange is the lex-min positive distance with a
  // negative inner component, (1, -2) for A[2i + j].
  src.access = dst.access = IntMat{{2, 1}};
  src.offset = dst.offset = IntVec{0};
  s = lattice_space(src, dst, box);
  EXPECT_EQ(s.dims(), 1u);
  o = find_reversal(s, IntMat{{0, 1}, {1, 0}}, box, kBudget);
  ASSERT_TRUE(o.witness.has_value());
  EXPECT_EQ(o.witness->second - o.witness->first, (IntVec{1, -2}));
}

TEST(VerifyLattice, OverflowingLatticeLeavesEverySearchUndecided) {
  const IntBox box = IntBox::from_upper_bounds({4});
  ArrayRef src, dst;
  src.access = dst.access = IntMat{{1}};
  src.offset = IntVec{std::numeric_limits<Int>::max()};
  dst.offset = IntVec{-1};  // b_src - b_dst overflows
  const SearchSpace s = lattice_space(src, dst, box);
  EXPECT_TRUE(s.undecided);
  const IntMat id = IntMat::identity(1);
  for (const SearchOutcome& o : {find_reversal(s, id, box, kBudget),
                                 find_negative_component(s, id, 0, box, kBudget),
                                 find_carried(s, id, 0, box, kBudget)}) {
    EXPECT_FALSE(o.complete);
    EXPECT_FALSE(o.witness.has_value());
  }
}

}  // namespace
}  // namespace lmre
