// Property suite for the MRC subsystem (src/mrc) and the dense-engine
// stack-distance port (src/exact/stack_distance.h): on ~200 random 2-/3-
// deep nests (fixed seeds, failures reproduce),
//   (a) histogram totals equal the oracle's access counts and cold misses
//       equal its distinct-element counts,
//   (b) the miss curve is monotone non-increasing in capacity and reaches
//       the cold-miss floor at the knee,
//   (c) the sampled curve stays within the declared error bound of the
//       exact one at rates 0.1 and 0.01,
//   (d) results are byte-identical across arena reuse, thread counts, and
//       cold vs warm session caches,
// and the dense Fenwick stack-distance path reproduces the retained
// MRU-list reference engine bin for bin, in original and transformed order.
// Exact mode's dense distance counts fold into the same bins as one
// histogram add per access, on these nests and the shared nest corpus.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "exact/oracle.h"
#include "exact/stack_distance.h"
#include "exact/trace_engine.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "mrc/mrc.h"
#include "nest_corpus.h"
#include "runtime/session.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xD15EA5E + seed); }

// Same nest generators as property_oracle_test: a write/read pair plus a
// reduction-style target (2-deep), a skewed affine access (3-deep).
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

std::vector<IntMat> transforms_for(size_t depth) {
  if (depth == 2) {
    return {IntMat::identity(2), IntMat{{0, 1}, {1, 0}}, IntMat{{-1, 0}, {0, 1}},
            IntMat{{1, 1}, {0, 1}}};
  }
  if (depth == 3) {
    return {IntMat::identity(3), IntMat{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
            IntMat{{1, 0, 0}, {1, 1, 0}, {0, 0, 1}}};
  }
  return {IntMat::identity(depth)};
}

void expect_profile_eq(const StackDistanceProfile& got,
                       const StackDistanceProfile& want,
                       const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.cold_accesses, want.cold_accesses);
  EXPECT_EQ(got.total_accesses, want.total_accesses);
  EXPECT_EQ(got.histogram, want.histogram);
}

// Exact mode through one MrcHistogram::add per access -- the fold that
// compute_mrc's dense integer counts replace.
MrcResult per_access_mrc(const LoopNest& nest, const IntMat* transform) {
  MrcResult res;
  std::vector<size_t> array_slot(nest.arrays().size(), SIZE_MAX);
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    array_slot[id] = res.arrays.size();
    res.arrays.push_back(MrcArrayCurve{nest.array(id).name, 0, {}});
  }
  const std::vector<ArrayRef> refs = nest.all_refs();
  DistanceVisitOptions opts;
  opts.transform = transform;
  TraceArena arena;
  visit_stack_distances(nest, opts, arena, [&](size_t r, Int distance) {
    res.aggregate.add(distance, 1.0);
    res.arrays[array_slot[refs[r].array]].hist.add(distance, 1.0);
  });
  return res;
}

// compute_mrc's exact curves equal the per-access fold, bin for bin.
void expect_dense_counts_match(const LoopNest& nest, const IntMat* transform,
                               const std::string& what) {
  SCOPED_TRACE(what + (transform ? " t=" + transform->str() : ""));
  MrcOptions opts;
  opts.transform = transform;
  const MrcResult dense = compute_mrc(nest, opts);
  const MrcResult want = per_access_mrc(nest, transform);
  EXPECT_EQ(dense.aggregate.cold, want.aggregate.cold);
  EXPECT_EQ(dense.aggregate.bins, want.aggregate.bins);
  ASSERT_EQ(dense.arrays.size(), want.arrays.size());
  for (size_t a = 0; a < want.arrays.size(); ++a) {
    EXPECT_EQ(dense.arrays[a].hist.cold, want.arrays[a].hist.cold) << a;
    EXPECT_EQ(dense.arrays[a].hist.bins, want.arrays[a].hist.bins) << a;
  }
  EXPECT_EQ(static_cast<double>(dense.sampled_elements), want.aggregate.cold);
}

// (a) + (b) + dense-vs-reference differential on one nest.
void check_exact_properties(const LoopNest& nest, const std::string& what) {
  SCOPED_TRACE(what);
  TraceStats oracle = simulate(nest);
  MrcResult m = compute_mrc(nest);

  // (a) totals: every access lands in exactly one bin or the cold count,
  // and in exact mode cold misses ARE the oracle's distinct elements.
  EXPECT_EQ(static_cast<Int>(m.aggregate.total), oracle.total_accesses);
  EXPECT_EQ(static_cast<Int>(m.aggregate.cold), oracle.distinct_total);
  double binned = 0;
  for (const auto& [d, w] : m.aggregate.bins) {
    EXPECT_GE(d, 1);
    binned += w;
  }
  EXPECT_DOUBLE_EQ(binned + m.aggregate.cold, m.aggregate.total);
  double array_total = 0, array_cold = 0;
  for (const MrcArrayCurve& a : m.arrays) {
    array_total += a.hist.total;
    array_cold += a.hist.cold;
  }
  EXPECT_DOUBLE_EQ(array_total, m.aggregate.total);
  EXPECT_DOUBLE_EQ(array_cold, m.aggregate.cold);
  EXPECT_EQ(m.error_bound, 0.0);
  EXPECT_EQ(m.knee, m.aggregate.max_distance());

  // (b) monotone non-increasing curve reaching the cold floor at the knee;
  // the histogram's misses and the profile's lru_misses agree in exact mode.
  StackDistanceProfile profile = stack_distances(nest);
  expect_profile_eq(profile, stack_distances_reference(nest), "vs reference");
  double prev = m.aggregate.misses(0);
  for (Int c = 0; c <= m.knee + 2; ++c) {
    double misses = m.aggregate.misses(c);
    EXPECT_LE(misses, prev) << "capacity " << c;
    EXPECT_EQ(static_cast<Int>(misses), profile.lru_misses(c))
        << "capacity " << c;
    prev = misses;
  }
  EXPECT_DOUBLE_EQ(m.aggregate.misses(m.knee), m.aggregate.cold);
  EXPECT_EQ(profile.lru_misses(oracle.distinct_total), profile.cold_accesses);

  // Dense engine == MRU-list reference, and dense counts == per-access
  // bins, under every transform.
  for (const IntMat& t : transforms_for(nest.depth())) {
    expect_profile_eq(stack_distances(nest, &t),
                      stack_distances_reference(nest, &t), "t=" + t.str());
    expect_dense_counts_match(nest, &t, "");
  }
}

// (c) the sampled curve honors the declared error bound against the exact
// curve at every capacity on the default sweep, under the contract metric
// (mrc_curve_error: vertical error after the capacity axis flexes by the
// sampling jitter -- see DESIGN.md §14).  Ratios themselves always stay in
// [0, 1] thanks to the misses() clamp, so the raw pointwise gap never
// exceeds 1 either.
void check_sampled_error(const LoopNest& nest, double rate,
                         const std::string& what) {
  SCOPED_TRACE(what + " rate=" + std::to_string(rate));
  MrcResult exact = compute_mrc(nest);
  MrcOptions opts;
  opts.sample_rate = rate;
  MrcResult sampled = compute_mrc(nest, opts);
  EXPECT_EQ(sampled.sample_rate, rate);
  EXPECT_GT(sampled.error_bound, 0.0);
  EXPECT_LE(sampled.error_bound, 1.0);
  // Totals stay exact regardless of the sample.
  EXPECT_DOUBLE_EQ(sampled.aggregate.total, exact.aggregate.total);
  std::vector<Int> caps = default_mrc_capacities(exact);
  caps.push_back(0);
  for (Int c : caps) {
    EXPECT_LE(mrc_curve_error(sampled, exact, c), sampled.error_bound)
        << "capacity " << c;
    EXPECT_GE(sampled.aggregate.miss_ratio(c), 0.0) << "capacity " << c;
    EXPECT_LE(sampled.aggregate.miss_ratio(c), 1.0) << "capacity " << c;
  }
}

// The payload text mrc_json writes for a curve.
std::string mrc_text(const MrcResult& r, const std::vector<Int>& caps) {
  std::string out;
  JsonWriter w(out);
  mrc_json(w, r, caps);
  return out;
}

// (d) determinism: same inputs, same bytes -- fresh arena vs reused arena,
// and repeated sampled runs with one seed.
void check_determinism(const LoopNest& nest, TraceArena& shared,
                       const std::string& what) {
  SCOPED_TRACE(what);
  MrcOptions opts;
  std::vector<Int> caps = default_mrc_capacities(compute_mrc(nest));
  const std::string fresh = mrc_text(compute_mrc(nest), caps);
  const std::string warm = mrc_text(compute_mrc(nest, opts, shared), caps);
  EXPECT_EQ(fresh, warm);
  opts.sample_rate = 0.1;
  const std::string s1 = mrc_text(compute_mrc(nest, opts, shared), caps);
  const std::string s2 = mrc_text(compute_mrc(nest, opts, shared), caps);
  EXPECT_EQ(s1, s2);
}

TEST(MrcExactCounts, DenseCountsEqualPerAccessBinsOnTheCorpus) {
  const std::vector<test::NamedNest> corpus = test::nest_corpus();
  ASSERT_GT(corpus.size(), 80u);
  for (const auto& [name, nest] : corpus) {
    expect_dense_counts_match(nest, nullptr, name);
    for (const IntMat& t : transforms_for(nest.depth())) {
      expect_dense_counts_match(nest, &t, name);
    }
  }
}

class MrcProperty : public ::testing::TestWithParam<int> {};

TEST_P(MrcProperty, ExactHistogramAndCurve2Deep) {
  auto rng = rng_for(GetParam());
  check_exact_properties(random_nest2(rng),
                         "seed " + std::to_string(GetParam()));
}

TEST_P(MrcProperty, ExactHistogramAndCurve3Deep) {
  auto rng = rng_for(1000 + GetParam());
  check_exact_properties(random_nest3(rng),
                         "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrcProperty, ::testing::Range(0, 100));

// The sampled/determinism sweeps run on fewer seeds (they recompute the
// exact curve as the baseline), still fixed and reproducible.
class MrcSampledProperty : public ::testing::TestWithParam<int> {};

TEST_P(MrcSampledProperty, SampledWithinDeclaredBound) {
  auto rng = rng_for(2000 + GetParam());
  LoopNest nest = GetParam() % 2 == 0 ? random_nest2(rng) : random_nest3(rng);
  const std::string what = "seed " + std::to_string(GetParam());
  check_sampled_error(nest, 0.1, what);
  check_sampled_error(nest, 0.01, what);
}

TEST_P(MrcSampledProperty, DeterministicAcrossArenaReuse) {
  auto rng = rng_for(3000 + GetParam());
  TraceArena shared;
  LoopNest nest = GetParam() % 2 == 0 ? random_nest2(rng) : random_nest3(rng);
  check_determinism(nest, shared, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrcSampledProperty, ::testing::Range(0, 25));

// (d) at the session level: the "mrc" payload is byte-identical at 1 vs N
// threads and cold vs warm cache (the determinism contract the cache key
// deliberately excludes threads from).
TEST(MrcSession, PayloadByteIdenticalAcrossThreadsAndCache) {
  const char* source =
      "# paper example 8\n"
      "array X[106];\n"
      "for i = 1 to 25\n  for j = 1 to 10\n"
      "    X[2*i + 5*j + 1] = X[2*i + 5*j + 5];\n";
  AnalysisRequest::Mrc mopt;
  mopt.capacities = {0, 1, 8, 44, 106};
  AnalysisRequest req{source, "x.loop", mopt};

  AnalysisSession serial;
  AnalysisResult cold = serial.run(req);
  AnalysisResult warm = serial.run(req);
  EXPECT_EQ(cold.status, ExitCode::kSuccess);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.payload, warm.payload);

  SessionOptions threaded_opts;
  threaded_opts.run.threads = 4;
  AnalysisSession threaded(threaded_opts);
  AnalysisResult parallel = threaded.run(req);
  EXPECT_FALSE(parallel.cache_hit);
  EXPECT_EQ(parallel.payload, cold.payload);
  EXPECT_EQ(serial.request_key(req), threaded.request_key(req));
}

// The "mrc" kind rides run_batch like every other kind: results line up
// with the request order and match serial one-at-a-time runs byte for byte.
TEST(MrcSession, BatchFanOutMatchesSerialRuns) {
  const char* fir =
      "array y[40];\narray x[48];\narray h[8];\n"
      "for i = 1 to 40\n  for k = 1 to 8\n"
      "    y[i] = y[i] + x[i + k] + h[k];\n";
  const char* ex8 =
      "array X[106];\n"
      "for i = 1 to 25\n  for j = 1 to 10\n"
      "    X[2*i + 5*j + 1] = X[2*i + 5*j + 5];\n";
  AnalysisRequest::Mrc sampled;
  sampled.sample_rate = 0.25;
  std::vector<AnalysisRequest> requests = {
      {fir, "fir.loop", AnalysisRequest::Mrc{}},
      {ex8, "ex8.loop", sampled},
      {fir, "fir2.loop", AnalysisRequest::Mrc{}},  // same content as [0]
  };
  SessionOptions opts;
  opts.run.threads = 0;  // all cores
  AnalysisSession batch(opts);
  std::vector<AnalysisResult> results = batch.run_batch(requests);
  ASSERT_EQ(results.size(), requests.size());

  AnalysisSession serial;
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(results[i].status, ExitCode::kSuccess) << i;
    EXPECT_EQ(results[i].payload, serial.run(requests[i]).payload) << i;
  }
  EXPECT_EQ(results[0].payload, results[2].payload);  // one cache entry
}

// Sampling options are part of the result, so they must be part of the key.
TEST(MrcSession, SampleRateAndCapacitiesSaltTheCacheKey) {
  const char* source =
      "array X[106];\n"
      "for i = 1 to 25\n  for j = 1 to 10\n"
      "    X[2*i + 5*j + 1] = X[2*i + 5*j + 5];\n";
  AnalysisSession s;
  AnalysisRequest exact{source, "x.loop", AnalysisRequest::Mrc{}};
  AnalysisRequest::Mrc sampled_opt;
  sampled_opt.sample_rate = 0.5;
  AnalysisRequest sampled{source, "x.loop", sampled_opt};
  AnalysisRequest::Mrc caps_opt;
  caps_opt.capacities = {1, 44};
  AnalysisRequest capped{source, "x.loop", caps_opt};
  AnalysisRequest::Mrc plan_opt;
  plan_opt.plan = "0 1; 1 0";
  AnalysisRequest planned{source, "x.loop", plan_opt};

  EXPECT_NE(s.request_key(exact), s.request_key(sampled));
  EXPECT_NE(s.request_key(exact), s.request_key(capped));
  EXPECT_NE(s.request_key(exact), s.request_key(planned));
  EXPECT_NE(s.request_key(sampled), s.request_key(capped));

  AnalysisResult a = s.run(exact);
  AnalysisResult b = s.run(sampled);
  EXPECT_EQ(a.status, ExitCode::kSuccess);
  EXPECT_EQ(b.status, ExitCode::kSuccess);
  EXPECT_NE(a.payload, b.payload);
}

// Input validation surfaces as typed error payloads, not exceptions.
TEST(MrcSession, RejectsBadRateCapacitiesAndTiledPlans) {
  const char* source =
      "array X[106];\n"
      "for i = 1 to 25\n  for j = 1 to 10\n"
      "    X[2*i + 5*j + 1] = X[2*i + 5*j + 5];\n";
  AnalysisSession s;
  AnalysisRequest::Mrc bad_rate;
  bad_rate.sample_rate = 1.5;
  AnalysisResult r1 = s.run({source, "x.loop", bad_rate});
  EXPECT_EQ(r1.status, ExitCode::kUsage);
  EXPECT_NE(r1.payload.find("bad_sample_rate"), std::string::npos);

  AnalysisRequest::Mrc bad_caps;
  bad_caps.capacities = {-1};
  AnalysisResult r2 = s.run({source, "x.loop", bad_caps});
  EXPECT_EQ(r2.status, ExitCode::kUsage);
  EXPECT_NE(r2.payload.find("bad_capacities"), std::string::npos);

  AnalysisRequest::Mrc tiled;
  tiled.plan = "0 1; 1 0 | tile:4,4";
  AnalysisResult r3 = s.run({source, "x.loop", tiled});
  EXPECT_EQ(r3.status, ExitCode::kUsage);
  EXPECT_NE(r3.payload.find("bad_plan"), std::string::npos);
}

// The miss-ratio objective: never worse than the identity order at the
// target capacity (the identity is always a candidate), and the optimize
// envelope names the objective.
TEST(MrcObjective, NeverWorseThanIdentityAndNamedInEnvelope) {
  const char* source =
      "# paper example 10\n"
      "array A[61][51];\n"
      "for i = 1 to 10\n  for j = 1 to 20\n    for k = 1 to 30\n"
      "      use A[3*i + k][j + k];\n";
  AnalysisRequest::Optimize oopt;
  oopt.objective = "miss-ratio:64";
  AnalysisSession s;
  AnalysisResult r = s.run({source, "x.loop", oopt});
  ASSERT_EQ(r.status, ExitCode::kSuccess);
  EXPECT_NE(r.payload.find("\"objective\":\"miss-ratio\""), std::string::npos);
  EXPECT_NE(r.payload.find("\"objective_capacity\":64"), std::string::npos);
  EXPECT_NE(r.payload.find("\"miss_ratio_before\""), std::string::npos);
  EXPECT_NE(r.payload.find("\"miss_ratio_after\""), std::string::npos);

  LoopNest nest = parse_nest(source);
  TraceArena arena;
  std::optional<MissRatioPlan> mr =
      optimize_miss_ratio(nest, 64, MinimizerOptions{}, arena);
  ASSERT_TRUE(mr.has_value());
  EXPECT_LE(mr->miss_ratio_after, mr->miss_ratio_before + 1e-12);
  EXPECT_GT(mr->candidates, 0);

  // The default objective still reports mws.
  AnalysisResult mws = s.run({source, "x.loop", AnalysisRequest::Kind::kOptimize});
  ASSERT_EQ(mws.status, ExitCode::kSuccess);
  EXPECT_NE(mws.payload.find("\"objective\":\"mws\""), std::string::npos);
  EXPECT_NE(mws.payload.find("\"objective_value\""), std::string::npos);
}

TEST(MrcObjective, ParserAcceptsAndRejects) {
  EXPECT_TRUE(parse_objective_spec(""));
  EXPECT_FALSE(parse_objective_spec("")->miss_ratio);
  EXPECT_TRUE(parse_objective_spec("mws"));
  auto mr = parse_objective_spec("miss-ratio:540");
  ASSERT_TRUE(mr);
  EXPECT_TRUE(mr->miss_ratio);
  EXPECT_EQ(mr->capacity, 540);
  EXPECT_FALSE(parse_objective_spec("miss-ratio:"));
  EXPECT_FALSE(parse_objective_spec("miss-ratio:-1"));
  EXPECT_FALSE(parse_objective_spec("miss-ratio:12x"));
  EXPECT_FALSE(parse_objective_spec("bogus"));
}

}  // namespace
}  // namespace lmre
