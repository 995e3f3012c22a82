// The box drive of signed permutations against the polyhedral drive.
//
// plan_trace gives a signed-permutation scan its u_box = T * box, and
// run_trace then sweeps it with drive_box over the plan's u-space
// coefficients.  For every signed permutation of every corpus nest, with
// and without the liveness access order, that sweep must visit exactly the
// (ref, ordinal, addr) sequence drive_transformed visits over the same
// plan -- plus depth 1, negative bounds and an empty range.
//
// The tiled drive against the sort-based tiled order: a tiled plan's
// first/last run must give the TraceStats the hash-map reference gives
// over tests/tiling_reference.h's order, on dense and sparse stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "exact/reference.h"
#include "exact/trace_engine.h"
#include "ir/builder.h"
#include "nest_corpus.h"
#include "tiling_reference.h"

namespace lmre {
namespace {

struct Access {
  size_t ref;
  Int ordinal;
  std::uint64_t addr;
  bool operator==(const Access& o) const {
    return ref == o.ref && ordinal == o.ordinal && addr == o.addr;
  }
};

// Every n x n signed permutation matrix (n! * 2^n of them).
std::vector<IntMat> signed_permutations(size_t n) {
  std::vector<IntMat> out;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  do {
    for (unsigned signs = 0; signs < (1u << n); ++signs) {
      IntMat t(n, n);
      for (size_t r = 0; r < n; ++r) t(r, perm[r]) = (signs >> r) & 1 ? -1 : 1;
      out.push_back(t);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

// Buffers reused across the many runs of one test.
struct Scratch {
  TraceArena arena;
  std::vector<Access> want;
};

// run_trace's box drive of `t` against drive_transformed over one plan.
void expect_box_drive_matches(const LoopNest& nest, const IntMat& t,
                              bool liveness_order, const std::string& what,
                              Scratch& scratch) {
  const TracePlan plan = plan_trace(nest, &t, liveness_order);
  ASSERT_TRUE(plan.u_box.has_value()) << what;
  ASSERT_TRUE(plan.t_inv.has_value()) << what;
  std::vector<Access>& want = scratch.want;
  want.clear();
  const Int want_end = drive_transformed(
      plan.addr, nest, *plan.t_inv, 0,
      [&](size_t r, Int ordinal, std::uint64_t addr) {
        want.push_back({r, ordinal, addr});
      });
  size_t seen = 0;
  size_t first_mismatch = SIZE_MAX;
  const Int end = run_trace(plan, scratch.arena, /*with_state=*/false,
                            [&](TraceArena::StoreBuf&, size_t r, Int ordinal,
                                std::uint64_t addr) {
                              if (first_mismatch == SIZE_MAX &&
                                  (seen >= want.size() ||
                                   !(want[seen] == Access{r, ordinal, addr}))) {
                                first_mismatch = seen;
                              }
                              ++seen;
                            });
  EXPECT_EQ(end, want_end) << what;
  EXPECT_EQ(seen, want.size()) << what;
  EXPECT_EQ(first_mismatch, SIZE_MAX) << what << ": first differing access #"
                                      << first_mismatch;
}

void expect_every_signed_permutation(const LoopNest& nest,
                                     const std::string& name,
                                     Scratch& scratch) {
  for (const IntMat& t : signed_permutations(nest.depth())) {
    for (bool liveness_order : {false, true}) {
      expect_box_drive_matches(nest, t, liveness_order,
                               name + " T=" + t.str() +
                                   (liveness_order ? " (liveness order)" : ""),
                               scratch);
    }
  }
}

void expect_every_signed_permutation(const LoopNest& nest,
                                     const std::string& name) {
  Scratch scratch;
  expect_every_signed_permutation(nest, name, scratch);
}

TEST(BoxDrive, EverySignedPermutationOfTheCorpus) {
  const std::vector<test::NamedNest> corpus = test::nest_corpus();
  ASSERT_GT(corpus.size(), 80u);
  Scratch scratch;
  for (const auto& [name, nest] : corpus) {
    expect_every_signed_permutation(nest, name, scratch);
  }
}

TEST(BoxDrive, DepthOneWithNegativeBounds) {
  NestBuilder b;
  b.loop("i", -7, 4);
  ArrayId a = b.array("A", {30});
  b.statement().write(a, {{1}}, {8}).read(a, {{-1}}, {12}).read(a, {{2}}, {15});
  expect_every_signed_permutation(b.build(), "depth-1");
}

TEST(BoxDrive, NegativeBoundsInEveryLoop) {
  NestBuilder b;
  b.loop("i", -3, 2).loop("j", -5, -1).loop("k", -2, 0);
  ArrayId a = b.array("A", {20, 20});
  ArrayId c = b.array("C", {40});
  b.statement()
      .write(a, {{1, 0, 1}, {0, 1, 0}}, {6, 7})
      .read(a, {{1, 0, 1}, {0, 1, 0}}, {5, 8})
      .read(c, {{1, -2, 3}}, {20});
  expect_every_signed_permutation(b.build(), "negative bounds");
}

TEST(BoxDrive, EmptyRangeVisitsNothing) {
  NestBuilder b;
  b.loop("i", 1, 3).loop("j", 1, 4);
  ArrayId a = b.array("A", {10, 10});
  b.statement().write(a, {{1, 0}, {0, 1}}, {0, 0}).read(a, {{1, 0}, {0, 1}}, {1, 1});
  const LoopNest built = b.build();
  // The builder refuses empty ranges; the engine still has to take them.
  const LoopNest empty(built.loop_vars(), IntBox({Range{1, 3}, Range{5, 4}}),
                       built.arrays(), built.statements());
  for (const IntMat& t : signed_permutations(2)) {
    const TracePlan plan = plan_trace(empty, &t, /*liveness_order=*/false);
    ASSERT_TRUE(plan.u_box.has_value());
    TraceArena arena;
    Int touches = 0;
    EXPECT_EQ(run_trace(plan, arena, false,
                        [&](TraceArena::StoreBuf&, size_t, Int, std::uint64_t) {
                          ++touches;
                        }),
              0);
    EXPECT_EQ(touches, 0);
  }
  expect_every_signed_permutation(empty, "empty range");
}

TEST(BoxDrive, OtherTransformsKeepThePolyhedralDrive) {
  NestBuilder b;
  b.loop("i", 1, 5).loop("j", 1, 6);
  ArrayId a = b.array("A", {20});
  b.statement().write(a, {{1, 1}}, {0}).read(a, {{1, 1}}, {1});
  const LoopNest nest = b.build();
  const IntMat skew{{1, 1}, {0, 1}};
  const TracePlan plan = plan_trace(nest, &skew, /*liveness_order=*/false);
  EXPECT_FALSE(plan.u_box.has_value());
  EXPECT_TRUE(plan.t_inv.has_value());
  EXPECT_FALSE(plan_trace(nest, nullptr, false).u_box.has_value());
}

// TraceStats of a finished first/last run, by the oracle's arithmetic.
TraceStats stats_of_run(const AddressPlan& plan, TraceArena& arena, Int iterations) {
  TraceStats s;
  s.iterations = iterations;
  s.total_accesses = iterations * static_cast<Int>(plan.refs.size());
  std::vector<Int> ref_count(plan.stores.size(), 0);
  for (const auto& r : plan.refs) ++ref_count[r.store];
  std::vector<Int> total(static_cast<size_t>(iterations) + 1, 0);
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    const ArrayId array = plan.stores[si].array;
    const TraceArena::StoreBuf& b = arena.store(si);
    if (b.touched > 0) s.distinct[array] = b.touched;
    s.distinct_total += b.touched;
    s.reuse[array] = ref_count[si] * iterations - b.touched;
    std::vector<Int> d(total.size(), 0);
    bool live = false;
    trace_detail::for_each_touched(b, [&](Int first, Int last) {
      if (first == last) return;
      live = true;
      ++d[static_cast<size_t>(first)];
      --d[static_cast<size_t>(last)];
      ++total[static_cast<size_t>(first)];
      --total[static_cast<size_t>(last)];
    });
    Int cur = 0, best = 0;
    for (Int v : d) best = std::max(best, cur += v);
    if (live || b.touched > 0) s.mws[array] = best;
  }
  s.reuse_total = s.total_accesses - s.distinct_total;
  Int cur = 0;
  for (Int v : total) s.mws_total = std::max(s.mws_total, cur += v);
  return s;
}

// Runs the tiled plan of (t, sizes) and checks its stats against the
// reference order's; returns the plan's sparse store count.
int expect_tiled_drive_matches(const LoopNest& nest, const IntMat& t,
                               const std::vector<Int>& sizes, const std::string& what,
                               TraceArena& arena) {
  const TracePlan plan = plan_trace(nest, &t, /*liveness_order=*/false, sizes);
  const Int iterations = run_trace(plan, arena, /*with_state=*/false,
                                   [](TraceArena::StoreBuf& s, size_t, Int ordinal,
                                      std::uint64_t addr) {
                                     trace_detail::touch_first_last(s, addr, ordinal);
                                   });
  const TraceStats got = stats_of_run(plan.addr, arena, iterations);
  const TraceStats want =
      reference::simulate_order(nest, test::tiled_order_reference(nest, t, sizes));
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.total_accesses, want.total_accesses) << what;
  EXPECT_EQ(got.distinct_total, want.distinct_total) << what;
  EXPECT_EQ(got.distinct, want.distinct) << what;
  EXPECT_EQ(got.reuse_total, want.reuse_total) << what;
  EXPECT_EQ(got.reuse, want.reuse) << what;
  EXPECT_EQ(got.mws_total, want.mws_total) << what;
  EXPECT_EQ(got.mws, want.mws) << what;
  int sparse = 0;
  for (const AddressPlan::Store& st : plan.addr.stores) sparse += st.dense ? 0 : 1;
  return sparse;
}

TEST(TiledDrive, MatchesTheReferenceTiledOrderOverTheCorpus) {
  const std::vector<test::NamedNest> corpus = test::nest_corpus();
  ASSERT_GT(corpus.size(), 80u);
  TraceArena arena;
  for (const auto& [name, nest] : corpus) {
    for (const IntMat& t : test::tiling_transforms(nest.depth())) {
      for (const std::vector<Int>& sizes : test::tiling_sizes(nest, t)) {
        expect_tiled_drive_matches(nest, t, sizes, name + " T=" + t.str(), arena);
      }
    }
  }
}

TEST(TiledDrive, SparseStoresIncludingTheWideBox) {
  // tests/golden/wide_box.loop: a 2^62-element reference box, 4 elements.
  const Int s = 2147483647;
  NestBuilder wide;
  wide.loop("i", 1, 2).loop("j", 1, 2);
  ArrayId a = wide.array("A", {s + 1, s + 1});
  wide.statement().write(a, {{s, 0}, {0, s}}, {0, 0}).read(a, {{s, 0}, {0, 0}}, {0, s});
  // A strided stream whose box is far larger than its 2 x 42 accesses.
  NestBuilder strided;
  strided.loop("i", 1, 6).loop("j", 1, 7);
  ArrayId x = strided.array("X", {8000});
  strided.statement()
      .write(x, IntMat{{1000, 3}}, IntVec{0})
      .read(x, IntMat{{1000, 3}}, IntVec{-5});
  TraceArena arena;
  for (const LoopNest& nest : {wide.build(), strided.build()}) {
    for (const IntMat& t : test::tiling_transforms(2)) {
      for (const std::vector<Int>& sizes : test::tiling_sizes(nest, t)) {
        EXPECT_EQ(expect_tiled_drive_matches(nest, t, sizes,
                                             nest.array(0).name + " T=" + t.str(), arena),
                  1);
      }
    }
  }
}

TEST(TiledDrive, PlansKeepTheirRowChecks) {
  NestBuilder b;
  b.loop("i", 1, 5).loop("j", 1, 6);
  ArrayId a = b.array("A", {20});
  b.statement().write(a, {{1, 1}}, {0}).read(a, {{1, 1}}, {1});
  const LoopNest nest = b.build();
  const IntMat skew{{1, 1}, {0, 1}};
  const TracePlan skewed = plan_trace(nest, &skew, false, {2, 3});
  EXPECT_EQ(skewed.tiles, (std::vector<Int>{2, 3}));
  EXPECT_FALSE(skewed.u_box.has_value());
  // A null transform with tiles stands for the identity, a box image.
  const TracePlan plain = plan_trace(nest, nullptr, false, {2, 3});
  ASSERT_TRUE(plain.t_inv.has_value());
  EXPECT_TRUE(plain.u_box.has_value());
  EXPECT_THROW(plan_trace(nest, nullptr, false, {2}), InvalidArgument);
  EXPECT_THROW(plan_trace(nest, nullptr, false, {0, 2}), InvalidArgument);
}

}  // namespace
}  // namespace lmre
