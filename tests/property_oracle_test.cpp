// Differential property suite for the dense-address trace engine: on random
// nests, the paper kernels, and the shipped .loop corpus, every public
// oracle entry point must reproduce the retained reference (hash-map)
// implementation field for field -- TraceStats, LivenessStats, lifetime
// reports, and window series; original and transformed order; dense and
// sparse storage paths, up to a 2^62-element reference box.
// ~200 random nests per run (100 seeds x 2 depths), fixed seeds so failures
// reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "codes/extra_kernels.h"
#include "codes/kernels.h"
#include "exact/liveness.h"
#include "exact/oracle.h"
#include "exact/reference.h"
#include "exact/stack_distance.h"
#include "exact/trace_engine.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "lint/lint.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xD15EA5E + seed); }

void expect_trace_eq(const TraceStats& got, const TraceStats& want,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.total_accesses, want.total_accesses);
  EXPECT_EQ(got.distinct_total, want.distinct_total);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.reuse_total, want.reuse_total);
  EXPECT_EQ(got.reuse, want.reuse);
  EXPECT_EQ(got.mws_total, want.mws_total);
  EXPECT_EQ(got.mws, want.mws);
}

void expect_liveness_eq(const LivenessStats& got, const LivenessStats& want,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.max_live, want.max_live);
  EXPECT_EQ(got.per_array, want.per_array);
  EXPECT_EQ(got.input_elements, want.input_elements);
}

void expect_lifetimes_eq(const LifetimeReport& got, const LifetimeReport& want,
                         const std::string& what) {
  SCOPED_TRACE(what);
  auto eq = [](const LifetimeStats& a, const LifetimeStats& b) {
    EXPECT_EQ(a.elements, b.elements);
    EXPECT_EQ(a.live_elements, b.live_elements);
    EXPECT_EQ(a.max_lifetime, b.max_lifetime);
    EXPECT_EQ(a.total_lifetime, b.total_lifetime);
  };
  ASSERT_EQ(got.per_array.size(), want.per_array.size());
  auto gi = got.per_array.begin();
  auto wi = want.per_array.begin();
  for (; gi != got.per_array.end(); ++gi, ++wi) {
    EXPECT_EQ(gi->first, wi->first);
    eq(gi->second, wi->second);
  }
  eq(got.total, want.total);
}

// Depth-matched unimodular transforms to exercise the composed (T^-1)
// stepping: identity, interchange, reversal, skew.
std::vector<IntMat> transforms_for(size_t depth) {
  if (depth == 2) {
    return {IntMat::identity(2), IntMat{{0, 1}, {1, 0}}, IntMat{{-1, 0}, {0, 1}},
            IntMat{{1, 0}, {1, 1}}, IntMat{{1, 1}, {0, 1}}};
  }
  if (depth == 3) {
    return {IntMat::identity(3), IntMat{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
            IntMat{{1, 0, 0}, {1, 1, 0}, {0, 0, 1}}};
  }
  return {IntMat::identity(depth)};
}

// Every entry point, engine vs reference, on one nest.
void expect_engine_matches_reference(const LoopNest& nest,
                                     const std::string& what) {
  expect_trace_eq(simulate(nest), reference::simulate(nest), what + " serial");
  expect_liveness_eq(min_memory_liveness(nest),
                     reference::min_memory_liveness(nest), what + " liveness");
  expect_lifetimes_eq(lifetime_report(nest), reference::lifetime_report(nest),
                      what + " lifetimes");
  for (const IntMat& t : transforms_for(nest.depth())) {
    const std::string tag = what + " t=" + t.str();
    expect_trace_eq(simulate_transformed(nest, t),
                    reference::simulate_transformed(nest, t), tag);
    EXPECT_EQ(window_series(nest, t), reference::window_series(nest, t)) << tag;
    expect_liveness_eq(min_memory_liveness(nest, &t),
                       reference::min_memory_liveness(nest, &t),
                       tag + " liveness");
    expect_lifetimes_eq(lifetime_report_transformed(nest, t),
                        reference::lifetime_report_transformed(nest, t),
                        tag + " lifetimes");
  }
}

// Random 2-deep nest: a write/read pair on a 2-d array plus a 1-d
// reduction-style target, random small offsets.
LoopNest random_nest2(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 11), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 6, n2 + 6});
  ArrayId s = b.array("S", {n1 + n2 + 10});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3})
      .read(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3});
  b.statement().write(s, IntMat{{1, 1}}, IntVec{3}).read(s, IntMat{{1, 1}},
                                                         {off(rng) + 3});
  return b.build();
}

// Random 3-deep nest over a 2-d array with a skewed affine access.
LoopNest random_nest3(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 7), coef(0, 2), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng), n3 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2).loop("k", 1, n3);
  ArrayId a = b.array("A", {60, 60});
  ArrayId s = b.array("S", {40});
  Int c1 = coef(rng), c2 = coef(rng) + 1;
  b.statement().read(a, IntMat{{1, 0, c1}, {0, 1, c2}},
                     {off(rng) + 5, off(rng) + 5});
  b.statement().write(s, IntMat{{1, 1, 0}}, IntVec{4});
  return b.build();
}

class OracleEngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(OracleEngineProperty, MatchesReference2Deep) {
  auto rng = rng_for(GetParam());
  expect_engine_matches_reference(random_nest2(rng),
                                  "seed " + std::to_string(GetParam()));
}

TEST_P(OracleEngineProperty, MatchesReference3Deep) {
  auto rng = rng_for(1000 + GetParam());
  expect_engine_matches_reference(random_nest3(rng),
                                  "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleEngineProperty, ::testing::Range(0, 100));

// A huge stride blows the element box far past the access count, forcing
// the sparse linear-probe path; results must not change.
TEST(OracleEngineStorage, SparseTableMatchesReference) {
  constexpr Int kStride = Int{1} << 19;
  NestBuilder b;
  b.loop("i", 1, 24).loop("j", 1, 24);
  ArrayId a = b.array("A", {Int{1} << 34});
  b.statement()
      .write(a, IntMat{{kStride, 1}}, IntVec{0})
      .read(a, IntMat{{kStride, 1}}, IntVec{1});
  LoopNest nest = b.build();

  TraceArena arena;
  expect_trace_eq(simulate(nest, 1, arena), reference::simulate(nest), "sparse");
  EXPECT_GT(arena.stats().sparse_stores, 0);
  expect_engine_matches_reference(nest, "sparse all entry points");
}

// A 2^62-element reference box (tests/golden/wide_box.loop): strides of
// 2^31 - 1 over a 2 x 2 space.  Past the old 2^61 address ceiling, it runs
// on the engine -- addressed modulo 2^64, stored in the sparse table --
// and every entry point equals the reference engine.
TEST(OracleEngineStorage, WideBoxMatchesReference) {
  constexpr Int kStride = (Int{1} << 31) - 1;
  NestBuilder b;
  b.loop("i", 1, 2).loop("j", 1, 2);
  ArrayId a = b.array("A", {Int{1} << 31, Int{1} << 31});
  b.statement()
      .write(a, IntMat{{kStride, 0}, {0, kStride}}, IntVec{0, 0})
      .read(a, IntMat{{kStride, 0}, {0, 0}}, IntVec{0, kStride});
  LoopNest nest = b.build();
  ASSERT_EQ(AddressPlan::build(nest, nullptr, false).stores[0].volume,
            Int{1} << 62);

  expect_engine_matches_reference(nest, "wide box");
  TraceArena arena;
  for (const IntMat& t : transforms_for(nest.depth())) {
    const StackDistanceProfile got = stack_distances(nest, &t, arena);
    const StackDistanceProfile want = stack_distances_reference(nest, &t);
    EXPECT_EQ(got.histogram, want.histogram) << t.str();
    EXPECT_EQ(got.cold_accesses, want.cold_accesses) << t.str();
    EXPECT_EQ(got.total_accesses, want.total_accesses) << t.str();
  }
  EXPECT_GT(arena.stats().runs, 0);
  EXPECT_GT(arena.stats().sparse_stores, 0);
  EXPECT_EQ(arena.stats().dense_stores, 0);
}

// A reference box of 2^63 or more elements (here about 2^73: 2^35 strides
// over a 2^40 x 2^40 array) has no exact 64-bit address: every entry point
// throws OverflowError, and lint rejects the nest up front with LMRE-E009.
TEST(OracleEngineStorage, OverflowThrowsAndLintRejects) {
  constexpr Int kHuge = Int{1} << 35;
  NestBuilder b;
  b.loop("i", 1, 4).loop("j", 1, 4);
  ArrayId a = b.array("A", {Int{1} << 40, Int{1} << 40});
  b.statement()
      .write(a, IntMat{{kHuge, 0}, {0, kHuge}}, IntVec{0, 0})
      .read(a, IntMat{{kHuge, 0}, {0, kHuge}}, IntVec{0, 1});
  LoopNest nest = b.build();
  const IntMat t{{0, 1}, {1, 0}};

  TraceArena arena;
  EXPECT_THROW(simulate(nest, 1, arena), OverflowError);
  EXPECT_THROW(simulate_transformed(nest, t, arena), OverflowError);
  EXPECT_THROW(simulate_order(nest, {IntVec{1, 1}}), OverflowError);
  EXPECT_THROW(min_memory_liveness(nest, nullptr, arena), OverflowError);
  EXPECT_THROW(min_memory_liveness(nest, &t, arena), OverflowError);
  EXPECT_THROW(lifetime_report(nest, arena), OverflowError);
  EXPECT_THROW(lifetime_report_transformed(nest, t, arena), OverflowError);
  EXPECT_THROW(window_series(nest, t, arena), OverflowError);
  EXPECT_THROW(stack_distances(nest, nullptr, arena), OverflowError);
  EXPECT_EQ(arena.stats().runs, 0);

  LintResult lint = lint_nest(nest);
  EXPECT_TRUE(std::any_of(
      lint.diagnostics.begin(), lint.diagnostics.end(), [](const Diagnostic& d) {
        return d.id == "LMRE-E009" &&
               d.message.find("reference box of 'A'") != std::string::npos;
      }));
}

// One arena reused across different nests, transforms, and entry points
// must keep producing fresh-arena results (buffer reuse may not leak state
// between runs).
TEST(OracleEngineArena, ReuseAcrossNestsIsStateless) {
  TraceArena arena;
  for (int seed = 0; seed < 12; ++seed) {
    auto rng = rng_for(5000 + seed);
    LoopNest nest = seed % 2 == 0 ? random_nest2(rng) : random_nest3(rng);
    const std::string what = "arena seed " + std::to_string(seed);
    expect_trace_eq(simulate(nest, 1, arena), reference::simulate(nest), what);
    for (const IntMat& t : transforms_for(nest.depth())) {
      expect_trace_eq(simulate_transformed(nest, t, arena),
                      reference::simulate_transformed(nest, t),
                      what + " t=" + t.str());
      expect_liveness_eq(min_memory_liveness(nest, &t, arena),
                         reference::min_memory_liveness(nest, &t),
                         what + " liveness t=" + t.str());
      EXPECT_EQ(window_series(nest, t, arena), reference::window_series(nest, t))
          << what;
    }
    expect_lifetimes_eq(lifetime_report(nest, arena),
                        reference::lifetime_report(nest), what + " lifetimes");
  }
  EXPECT_GT(arena.stats().runs, 0);
  EXPECT_GT(arena.stats().arena_high_water_bytes, 0);
}

TEST(OracleEngineOrder, SimulateOrderMatchesReference) {
  auto rng = rng_for(424242);
  LoopNest nest = random_nest2(rng);
  // Reverse-lexicographic replay: a legal order the incremental stepping
  // cannot shortcut.
  std::vector<IntVec> order;
  visit_iterations(nest, nullptr, [&](Int, const IntVec& iter) {
    order.push_back(iter);
  });
  std::reverse(order.begin(), order.end());
  expect_trace_eq(simulate_order(nest, order),
                  reference::simulate_order(nest, order), "reverse order");
}

TEST(OracleEngineEdge, EmptyAndDegenerateNests) {
  {
    // Empty iteration space (the builder refuses empty ranges; build the IR
    // directly).
    LoopNest nest({"i", "j"}, IntBox({Range{1, 0}, Range{1, 5}}),
                  {Array{"A", {10}}},
                  {Statement{{ArrayRef{0, AccessKind::kWrite, IntMat{{1, 0}},
                                       IntVec{0}}}}});
    expect_engine_matches_reference(nest, "empty box");
  }
  {
    NestBuilder b;
    b.loop("i", 1, 1).loop("j", 1, 1);  // single iteration
    ArrayId a = b.array("A", {4});
    b.statement().write(a, IntMat{{1, 1}}, IntVec{0}).read(a, IntMat{{1, 1}},
                                                           IntVec{0});
    LoopNest nest = b.build();
    expect_engine_matches_reference(nest, "single iteration");
  }
}

TEST(OraclePaperKernels, Figure2SuiteMatchesReference) {
  for (auto& e : codes::figure2_suite()) {
    expect_trace_eq(simulate(e.nest), reference::simulate(e.nest), e.name);
    expect_liveness_eq(min_memory_liveness(e.nest),
                       reference::min_memory_liveness(e.nest),
                       e.name + " liveness");
  }
}

TEST(OraclePaperKernels, ExtraSuiteMatchesReference) {
  for (auto& [name, nest] : codes::extra_suite()) {
    expect_trace_eq(simulate(nest), reference::simulate(nest), name);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; the loop files live in the
// source tree.  Probe a couple of plausible roots.
std::string loops_dir() {
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (!read_file(std::string(base) + "matmult.loop").empty()) return base;
  }
  return "";
}

TEST(OracleLoopCorpus, EveryShippedFileMatchesReference) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    std::string source = read_file(entry.path().string());
    ASSERT_FALSE(source.empty()) << entry.path();
    Program program = parse_program(source);
    for (size_t k = 0; k < program.phase_count(); ++k) {
      const LoopNest& nest = program.phase_nest(k);
      if (nest.iteration_count() > 2'000'000) continue;
      const std::string what =
          entry.path().filename().string() + " phase " + std::to_string(k);
      expect_trace_eq(simulate(nest), reference::simulate(nest), what);
      expect_liveness_eq(min_memory_liveness(nest),
                         reference::min_memory_liveness(nest),
                         what + " liveness");
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace lmre
