// The batch fan-out primitive and the analyses it runs side by side.
//
// parallel_map is the only parallelism left inside lmre: `lmre batch` runs
// one request per slot, each on one thread (the serve worker pool is the
// same shape).  This suite pins the primitive's contract -- positional
// results, contiguous per-thread slices, the lowest-indexed exception wins,
// 0 threads = hardware concurrency -- and checks that the paper's search
// and the exact oracle give the serial answer when several copies run at
// once (no hidden shared state).  The tier-1 ThreadSanitizer stage runs
// this binary.  The ParallelOracle* cases are a randomized sweep: 100
// seeds x 2 depths, fixed so failures reproduce.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codes/examples.h"
#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "support/parallel_for.h"
#include "transform/minimizer.h"

namespace lmre {
namespace {

// ---------------------------------------------------------------------------
// The primitive itself.

TEST(ParallelSearch, ParallelMapOrdersResults) {
  auto squares = parallel_map<Int>(257, 4, [](Int i) { return i * i; });
  ASSERT_EQ(squares.size(), 257u);
  for (Int i = 0; i < 257; ++i) EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
}

TEST(ParallelSearch, ParallelMapSlicesAreContiguous) {
  // Each thread owns one contiguous, ascending run of indices; together
  // the runs cover [0, n) once.
  std::mutex mu;
  std::map<std::thread::id, std::vector<Int>> seen;
  auto out = parallel_map<int>(100, 4, [&](Int i) {
    std::lock_guard<std::mutex> lock(mu);
    seen[std::this_thread::get_id()].push_back(i);
    return 0;
  });
  EXPECT_EQ(out.size(), 100u);
  EXPECT_LE(seen.size(), 4u);
  Int covered = 0;
  for (const auto& [id, indices] : seen) {
    for (size_t k = 1; k < indices.size(); ++k) {
      EXPECT_EQ(indices[k], indices[k - 1] + 1);
    }
    covered += static_cast<Int>(indices.size());
  }
  EXPECT_EQ(covered, 100);
}

TEST(ParallelSearch, ParallelMapSerialRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<Int> order;
  parallel_map<int>(10, 1, [&](Int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return 0;
  });
  EXPECT_EQ(order, (std::vector<Int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_TRUE(parallel_map<int>(0, 4, [](Int) { return 1; }).empty());
}

TEST(ParallelSearch, ParallelMapPropagatesLowestIndexError) {
  // Indices 20.. throw; whichever thread fails first, the exception the
  // caller sees is the lowest failing index's -- where a serial loop stops.
  for (int threads : {1, 4}) {
    try {
      parallel_map<int>(64, threads, [](Int i) -> int {
        if (i >= 20) throw std::runtime_error("index " + std::to_string(i));
        return 0;
      });
      FAIL() << "expected the exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 20") << "threads=" << threads;
    }
  }
}

TEST(ParallelSearch, ResolveThreads) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolve_threads(0), hw == 0 ? 1 : static_cast<int>(hw));
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
  EXPECT_EQ(resolve_threads(-3), 1);
}

// ---------------------------------------------------------------------------
// The search, run as concurrent requests: every copy must equal the serial
// run -- the same transform, estimate, candidate count and oracle stats.

void expect_same_stats(const TraceStats& serial, const TraceStats& other,
                       const std::string& what) {
  EXPECT_EQ(serial.iterations, other.iterations) << what;
  EXPECT_EQ(serial.total_accesses, other.total_accesses) << what;
  EXPECT_EQ(serial.distinct_total, other.distinct_total) << what;
  EXPECT_EQ(serial.distinct, other.distinct) << what;
  EXPECT_EQ(serial.reuse_total, other.reuse_total) << what;
  EXPECT_EQ(serial.reuse, other.reuse) << what;
  EXPECT_EQ(serial.mws_total, other.mws_total) << what;
  EXPECT_EQ(serial.mws, other.mws) << what;
}

struct SearchOutcome {
  TraceStats exact;
  std::vector<std::optional<MinimizerResult>> rows;  ///< one per strategy
  OptimizeResult plan;
  TraceStats after;
};

SearchOutcome search(const LoopNest& nest) {
  using Strategy = MinimizerOptions::Strategy;
  SearchOutcome out;
  out.exact = simulate(nest);
  for (Strategy strategy :
       {Strategy::kExhaustive, Strategy::kGreedyW, Strategy::kBranchAndBound}) {
    MinimizerOptions opts;
    opts.strategy = strategy;
    out.rows.push_back(minimize_mws_2d(nest, opts));
  }
  out.plan = optimize_locality(nest);
  out.after = simulate_transformed(nest, out.plan.transform);
  return out;
}

void check_nest(const LoopNest& nest, const std::string& name) {
  const SearchOutcome serial = search(nest);
  for (int threads : {2, 4}) {
    std::vector<SearchOutcome> copies = parallel_map<SearchOutcome>(
        4, threads, [&](Int) { return search(nest); });
    for (const SearchOutcome& got : copies) {
      const std::string what = name + " threads=" + std::to_string(threads);
      expect_same_stats(serial.exact, got.exact, what + " simulate");
      ASSERT_EQ(serial.rows.size(), got.rows.size()) << what;
      for (size_t s = 0; s < serial.rows.size(); ++s) {
        ASSERT_EQ(serial.rows[s].has_value(), got.rows[s].has_value()) << what;
        if (!serial.rows[s]) continue;
        EXPECT_EQ(serial.rows[s]->transform, got.rows[s]->transform) << what;
        EXPECT_EQ(serial.rows[s]->predicted_mws, got.rows[s]->predicted_mws)
            << what;
        EXPECT_EQ(serial.rows[s]->candidates, got.rows[s]->candidates) << what;
      }
      EXPECT_EQ(serial.plan.transform, got.plan.transform) << what;
      EXPECT_EQ(serial.plan.method, got.plan.method) << what;
      EXPECT_EQ(serial.plan.predicted_mws, got.plan.predicted_mws) << what;
      expect_same_stats(serial.after, got.after, what + " optimized");
    }
  }
}

TEST(ParallelSearch, PaperExample7) { check_nest(codes::example_7(), "ex7"); }
TEST(ParallelSearch, PaperExample8) { check_nest(codes::example_8(), "ex8"); }
TEST(ParallelSearch, PaperExample9Nonuniform) {
  // Example 6/9 family: non-uniform references exercise the driver's
  // permutation path rather than the row minimizer.
  check_nest(codes::example_6(), "ex6");
}
TEST(ParallelSearch, PaperExample10ThreeDeep) {
  check_nest(codes::example_5(), "ex10");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string loops_dir() {
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (!read_file(std::string(base) + "matmult.loop").empty()) return base;
  }
  return "";
}

// Every shipped .loop file that parses to a single nest of depth <= 3 with
// small bounds joins the corpus.
TEST(ParallelSearch, ShippedLoopFileCorpus) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  constexpr Int kIterationCap = 40'000;
  int covered = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    std::string name = entry.path().filename().string();
    Program program = parse_program(read_file(entry.path().string()));
    if (program.phase_count() != 1) continue;
    const LoopNest& nest = program.phase_nest(0);
    if (nest.depth() > 3 || nest.iteration_count() > kIterationCap) continue;
    check_nest(nest, name);
    ++covered;
  }
  // The shipped set must keep feeding the corpus; a handful of files are
  // expected to qualify today (fir, iir, 2point, example8, row_sum, ...).
  EXPECT_GE(covered, 5) << "corpus shrank: too few .loop files qualified";
}

// ---------------------------------------------------------------------------
// The exact oracle, run as concurrent requests on random nests.  Each slot
// passes a different value as simulate's unused count and owns its arena;
// every slot must reproduce the serial statistics.

std::mt19937 rng_for(int seed) { return std::mt19937(0xBADC0DE + seed); }

// Random 2-deep nest with a write/read pair of uniformly generated 2-d
// references (the generator pattern of property_random2_test).
LoopNest random_nest2(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 11), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 6, n2 + 6});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3})
      .read(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3});
  return b.build();
}

// Random 3-deep nest over a 2-d array with a skewed affine access, plus a
// 1-d reduction target.
LoopNest random_nest3(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 7), coef(0, 2), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng), n3 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2).loop("k", 1, n3);
  ArrayId a = b.array("A", {60, 60});
  ArrayId s = b.array("S", {40});
  Int c1 = coef(rng), c2 = coef(rng) + 1;
  b.statement().read(a, IntMat{{1, 0, c1}, {0, 1, c2}}, {off(rng) + 5, off(rng) + 5});
  b.statement().write(s, IntMat{{1, 1, 0}}, IntVec{4});
  return b.build();
}

void expect_concurrent_matches_serial(const LoopNest& nest, int slots,
                                      int threads, const std::string& what) {
  const TraceStats serial = simulate(nest);
  constexpr int kCounts[] = {2, 3, 4, 0};
  std::vector<TraceStats> got = parallel_map<TraceStats>(slots, threads, [&](Int i) {
    TraceArena arena;
    return simulate(nest, kCounts[i % 4], arena);
  });
  for (int i = 0; i < slots; ++i) {
    expect_same_stats(serial, got[static_cast<size_t>(i)],
                      what + " slot " + std::to_string(i));
  }
}

// The case names are the sweep's long-standing IDs, kept stable for result
// tracking; the "chunks" are now parallel_map's per-thread slices.
class ParallelOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParallelOracleProperty, ChunkedSimulateMatchesSerial2Deep) {
  auto rng = rng_for(GetParam());
  expect_concurrent_matches_serial(random_nest2(rng), 4, 4,
                                   "seed " + std::to_string(GetParam()));
}

TEST_P(ParallelOracleProperty, ChunkedSimulateMatchesSerial3Deep) {
  auto rng = rng_for(1000 + GetParam());
  expect_concurrent_matches_serial(random_nest3(rng), 4, 4,
                                   "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelOracleProperty, ::testing::Range(0, 100));

// Degenerate shapes: a one-iteration outer loop, and more threads asked for
// than there are slots to run.
TEST(ParallelOracleEdge, SingleOuterIteration) {
  NestBuilder b;
  b.loop("i", 1, 1).loop("j", 1, 9);
  ArrayId a = b.array("A", {20});
  b.statement().write(a, IntMat{{1, 1}}, IntVec{2}).read(a, IntMat{{1, 1}},
                                                         IntVec{3});
  expect_concurrent_matches_serial(b.build(), 4, 4, "single outer");
}

TEST(ParallelOracleEdge, MoreThreadsThanOuterTrips) {
  NestBuilder b;
  b.loop("i", 1, 3).loop("j", 1, 5);
  ArrayId a = b.array("A", {20});
  b.statement().write(a, IntMat{{1, 1}}, IntVec{2}).read(a, IntMat{{1, 1}},
                                                         IntVec{4});
  expect_concurrent_matches_serial(b.build(), 3, 16, "3 slots on 16 threads");
}

}  // namespace
}  // namespace lmre
