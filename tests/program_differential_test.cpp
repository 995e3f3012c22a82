// Program::simulate on the dense trace engine against the hash-map
// whole-program trace (program_reference.h): every ProgramStats field --
// phase starts, handoffs and per-phase windows included -- on seeded
// random 2- to 4-phase programs with shared and private arrays, and on
// every examples/loops program.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exact/trace_engine.h"
#include "nest_corpus.h"
#include "program/program.h"
#include "program_reference.h"

namespace lmre {
namespace {

void expect_same(const ProgramStats& got, const ProgramStats& want,
                 const std::string& what) {
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.mws_total, want.mws_total) << what;
  EXPECT_EQ(got.distinct_total, want.distinct_total) << what;
  EXPECT_EQ(got.default_memory, want.default_memory) << what;
  EXPECT_EQ(got.phase_start, want.phase_start) << what;
  EXPECT_EQ(got.handoff, want.handoff) << what;
  EXPECT_EQ(got.phase_mws, want.phase_mws) << what;
  EXPECT_EQ(got.distinct, want.distinct) << what;
}

// Rebuilds `nest` with its arrays renamed.  Mostly, the first array of
// each rank becomes the program-wide "S<rank>" (one extent list per rank,
// so every phase may declare it); otherwise an array is private to phase k.
LoopNest rename_arrays(const LoopNest& nest, size_t k, std::mt19937& rng) {
  std::vector<Array> arrays = nest.arrays();
  std::set<size_t> shared_ranks;
  for (Array& a : arrays) {
    const size_t rank = a.dims();
    if (rng() % 4 != 0 && shared_ranks.insert(rank).second) {
      a.name = "S" + std::to_string(rank);
      a.extents.assign(rank, 64);
    } else {
      a.name = "P" + std::to_string(k) + "_" + a.name;
    }
  }
  return LoopNest(nest.loop_vars(), nest.bounds(), std::move(arrays),
                  nest.statements());
}

// A 2- to 4-phase program whose phases come from the corpus generators.
Program random_program(unsigned seed) {
  std::mt19937 rng(0x5EED0000u + seed);
  Program p;
  const size_t phases = 2 + rng() % 3;
  for (size_t k = 0; k < phases; ++k) {
    LoopNest nest = [&] {
      switch (rng() % 4) {
        case 0: return test::random_stream2(rng);
        case 1: return test::random_nest2(rng);
        case 2: return test::random_kernel3(rng);
        default: return test::random_stencil(rng);
      }
    }();
    p.add_phase("phase" + std::to_string(k), rename_arrays(nest, k, rng));
  }
  return p;
}

TEST(ProgramDifferential, RandomProgramsMatchTheHashMapTrace) {
  TraceArena arena;  // reused across programs, as a session reuses its own
  int with_shared = 0;
  for (unsigned seed = 0; seed < 200; ++seed) {
    const Program p = random_program(seed);
    const std::string what = "seed " + std::to_string(seed);
    const ProgramStats want = test::simulate_program_reference(p);
    expect_same(p.simulate(arena), want, what);
    expect_same(p.simulate(), want, what + " (fresh arena)");

    std::map<std::string, int> phases_of;
    for (size_t k = 0; k < p.phase_count(); ++k) {
      std::set<std::string> names;
      for (const ArrayRef& r : p.phase_nest(k).all_refs()) {
        names.insert(p.phase_nest(k).array(r.array).name);
      }
      for (const std::string& n : names) ++phases_of[n];
    }
    for (const auto& [name, count] : phases_of) {
      if (count > 1) {
        ++with_shared;
        break;
      }
    }
  }
  // Most programs carry an array across phases (its store spans the
  // union of the phases' reference boxes).
  EXPECT_GT(with_shared, 100);
}

TEST(ProgramDifferential, ExampleProgramsMatchTheHashMapTrace) {
  const std::string dir = test::example_loops_dir();
  if (dir.empty()) GTEST_SKIP() << "examples/loops not found";
  int multi_phase = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".loop") continue;
    const Program p = parse_program(test::read_text(e.path().string()));
    if (p.phase_count() > 1) ++multi_phase;
    expect_same(p.simulate(), test::simulate_program_reference(p),
                e.path().filename().string());
  }
  EXPECT_GE(multi_phase, 1);  // pipeline.loop
}

TEST(ProgramDifferential, PipelineHandsTheWholeBufferOver) {
  const std::string dir = test::example_loops_dir();
  if (dir.empty()) GTEST_SKIP() << "examples/loops not found";
  const Program p = parse_program(test::read_text(dir + "pipeline.loop"));
  const ProgramStats s = p.simulate();
  EXPECT_EQ(s.handoff, (std::vector<Int>{0, 32}));
  expect_same(s, test::simulate_program_reference(p), "pipeline.loop");
}

}  // namespace
}  // namespace lmre
