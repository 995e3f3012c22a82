// Third randomized property suite: wavefront, stack distances vs the cache
// simulator, direction-vector completeness, and inclusion-exclusion on
// randomized shapes.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "cachesim/cache.h"
#include "dependence/dependence.h"
#include "dependence/directions.h"
#include "exact/oracle.h"
#include "exact/stack_distance.h"
#include "ir/builder.h"
#include "layout/spatial.h"
#include "nest_corpus.h"
#include "polyhedra/scanner.h"
#include "transform/wavefront.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xFEEDF00D + seed); }

using test::random_stencil;

// ---------------------------------------------------------------------------
class WavefrontProperty : public ::testing::TestWithParam<int> {};

TEST_P(WavefrontProperty, HyperplaneCarriesEveryDependence) {
  auto rng = rng_for(GetParam());
  LoopNest nest = random_stencil(rng);
  auto res = wavefront_transform(nest);
  ASSERT_TRUE(res.has_value());
  auto memory = analyze_dependences(nest).distance_vectors(false);
  for (const auto& d : memory) {
    EXPECT_GE(res->hyperplane.dot(d), 1) << d.str();
  }
  // Semantics preserved; inner level parallel.
  TraceStats a = simulate(nest);
  TraceStats b = simulate_transformed(nest, res->transform);
  EXPECT_EQ(a.distinct_total, b.distinct_total);
  EXPECT_EQ(res->parallel_levels, 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WavefrontProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
class StackDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(StackDistanceProperty, HistogramPredictsSimulatorEverywhere) {
  auto rng = rng_for(100 + GetParam());
  LoopNest nest = random_stencil(rng);
  StackDistanceProfile p = stack_distances(nest);
  auto layouts = default_layouts(nest);
  std::uniform_int_distribution<Int> capd(1, p.max_distance() + 3);
  for (int probes = 0; probes < 4; ++probes) {
    Int cap = capd(rng);
    CacheStats sim = simulate_cache(nest, layouts, CacheConfig{cap, 1, 0});
    EXPECT_EQ(p.lru_misses(cap), sim.misses) << "capacity " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StackDistanceProperty, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Every concrete dependent pair must be covered by some feasible fully
// refined direction vector, and every reported vector must be witnessed.
class DirectionCompletenessProperty : public ::testing::TestWithParam<int> {};

TEST_P(DirectionCompletenessProperty, RefinementMatchesEnumeration) {
  auto rng = rng_for(200 + GetParam());
  std::uniform_int_distribution<Int> coefd(-3, 3), off(-4, 4);
  IntBox box = IntBox::from_upper_bounds({4, 4});
  ArrayRef a{0, AccessKind::kRead, IntMat{{coefd(rng), coefd(rng)}}, IntVec{off(rng)}};
  ArrayRef b{0, AccessKind::kRead, IntMat{{coefd(rng), coefd(rng)}}, IntVec{off(rng)}};

  // Enumerate all dependent pairs and their sign patterns.
  std::set<std::string> witnessed;
  scan(box.to_constraints(), [&](const IntVec& i) {
    scan(box.to_constraints(), [&](const IntVec& j) {
      if (!(a.index_at(i) == b.index_at(j))) return;
      std::vector<Dir> dirs;
      for (size_t k = 0; k < 2; ++k) {
        if (i[k] < j[k]) {
          dirs.push_back(Dir::kLt);
        } else if (i[k] == j[k]) {
          dirs.push_back(Dir::kEq);
        } else {
          dirs.push_back(Dir::kGt);
        }
      }
      witnessed.insert(direction_vector_string(dirs));
    });
  });

  std::set<std::string> reported;
  for (const auto& d : feasible_direction_vectors(a, b, box)) {
    reported.insert(direction_vector_string(d));
  }
  EXPECT_EQ(reported, witnessed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DirectionCompletenessProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace lmre
