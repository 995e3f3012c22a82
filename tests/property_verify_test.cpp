// Differential suite for the dependence-preservation prover (src/verify).
//
// Each case draws a random 2- or 3-deep nest (uniform or non-uniform
// reference pairs) and a random plan (1-2 unimodular steps, sometimes a
// tiling chunk), runs verify_plan, and cross-checks the verdict against a
// brute-force oracle that enumerates EVERY conflicting iteration pair and
// compares its execution order under the original, transformed, and (when
// the plan tiles) tiled schedules:
//
//   * zero false-legal: a "legal" verdict with a conflicting pair whose
//     order the plan reverses is a soundness bug, full stop;
//   * completeness: when the prover claims exactness (no search budget
//     exhausted) and the oracle finds a reversal, the verdict must be
//     reversed -- and vice versa, an exact legal verdict means the oracle
//     finds nothing;
//   * every reversal witness replays: source precedes destination in the
//     original order and follows it under the plan's schedule;
//   * the independent checker (src/verify/checker.h) accepts every
//     certificate the prover emits;
//   * determinism: re-running the same cases from N concurrent threads
//     yields byte-identical certificates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "linalg/mat.h"
#include "support/parallel_for.h"
#include "transform/tiling.h"
#include "verify/certificate.h"
#include "verify/checker.h"
#include "verify/verify.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0x5EED1E55 + seed); }

// Random nest: depth 2 or 3, one array, one write + two reads.  Half the
// draws share one access matrix (uniform pairs, distance-vector path); the
// rest perturb it (non-uniform, direction-vector path).
LoopNest random_nest(std::mt19937& rng, size_t depth) {
  std::uniform_int_distribution<Int> bnd(2, depth == 2 ? 6 : 4);
  std::uniform_int_distribution<Int> coef(-2, 2), off(-2, 2);
  std::uniform_int_distribution<int> coin(0, 1);

  NestBuilder b;
  std::vector<Int> hi(depth);
  for (size_t k = 0; k < depth; ++k) {
    hi[k] = bnd(rng);
    b.loop(std::string(1, static_cast<char>('i' + k)), 1, hi[k]);
  }

  const size_t dims = depth;  // square references keep conflicts plentiful
  auto random_access = [&] {
    IntMat a(dims, depth);
    for (size_t r = 0; r < dims; ++r) {
      for (size_t c = 0; c < depth; ++c) a(r, c) = coef(rng);
    }
    return a;
  };
  IntMat base = random_access();
  const bool uniform = coin(rng) == 1;

  // Extents generous enough for any touched index (verify and the oracle
  // work on relocatable index windows, so only validity matters).
  std::vector<Int> extents(dims);
  for (size_t r = 0; r < dims; ++r) {
    Int span = 3;  // max |offset| + 1
    for (size_t c = 0; c < depth; ++c) span += 2 * hi[c];  // max |coef| = 2
    extents[r] = 2 * span + 1;
  }
  ArrayId a = b.array("A", extents);

  auto random_offset = [&] {
    IntVec o(dims);
    for (size_t r = 0; r < dims; ++r) o[r] = off(rng);
    return o;
  };
  StatementBuilder s = b.statement();
  s.write(a, base, random_offset());
  s.read(a, uniform ? base : random_access(), random_offset());
  s.read(a, uniform ? base : random_access(), random_offset());
  return b.build();
}

// Random unimodular matrix: identity stirred by elementary row operations
// (swap, negate, shear), all determinant-preserving up to sign.
IntMat random_unimodular(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<size_t> row(0, n - 1);
  std::uniform_int_distribution<Int> shear(-1, 1);
  std::uniform_int_distribution<int> op(0, 2), reps(2, 4);
  IntMat m = IntMat::identity(n);
  const int k = reps(rng);
  for (int t = 0; t < k; ++t) {
    size_t r1 = row(rng), r2 = row(rng);
    switch (op(rng)) {
      case 0:
        for (size_t c = 0; c < n; ++c) std::swap(m(r1, c), m(r2, c));
        break;
      case 1:
        for (size_t c = 0; c < n; ++c) m(r1, c) = -m(r1, c);
        break;
      default:
        if (r1 != r2) {
          Int f = shear(rng);
          for (size_t c = 0; c < n; ++c) m(r1, c) += f * m(r2, c);
        }
        break;
    }
  }
  return m;
}

VerifyPlan random_plan(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<Int> tile(2, 4);
  VerifyPlan plan;
  plan.steps.push_back(random_unimodular(rng, n));
  if (pct(rng) < 30) plan.steps.push_back(random_unimodular(rng, n));
  if (pct(rng) < 30) {
    plan.tile_sizes.resize(n);
    for (size_t k = 0; k < n; ++k) plan.tile_sizes[k] = tile(rng);
  }
  return plan;
}

std::vector<IntVec> box_points(const IntBox& box) {
  std::vector<IntVec> pts;
  IntVec cur(box.dims());
  for (size_t k = 0; k < box.dims(); ++k) cur[k] = box.range(k).lo;
  while (true) {
    pts.push_back(cur);
    size_t k = box.dims();
    while (k > 0) {
      --k;
      if (cur[k] < box.range(k).hi) {
        ++cur[k];
        for (size_t m = k + 1; m < box.dims(); ++m) cur[m] = box.range(m).lo;
        break;
      }
      if (k == 0) return pts;
    }
  }
}

// One conflicting pair the oracle found reversed: refs src/dst touch the
// same element, src runs first originally, dst runs first under the plan.
struct Reversal {
  size_t src_ref = 0, dst_ref = 0;
  IntVec src_iter, dst_iter;
};

// Brute force over all conflicting iteration pairs of memory-dependent
// reference pairs (at least one endpoint writes).  `schedule` maps an
// original iteration to its execution position under the plan.
std::vector<Reversal> oracle_reversals(
    const LoopNest& nest, const std::vector<IntVec>& pts,
    const std::map<std::vector<Int>, size_t>& schedule) {
  std::vector<Reversal> out;
  std::vector<ArrayRef> refs = nest.all_refs();
  // element -> iterations touching it, per reference.
  std::vector<std::map<std::vector<Int>, std::vector<IntVec>>> touched(refs.size());
  for (size_t r = 0; r < refs.size(); ++r) {
    for (const IntVec& p : pts) touched[r][refs[r].index_at(p).to_vector()].push_back(p);
  }
  for (size_t r1 = 0; r1 < refs.size(); ++r1) {
    for (size_t r2 = 0; r2 < refs.size(); ++r2) {
      if (refs[r1].array != refs[r2].array) continue;
      if (!refs[r1].is_write() && !refs[r2].is_write()) continue;
      for (const auto& [elem, iters] : touched[r1]) {
        auto it = touched[r2].find(elem);
        if (it == touched[r2].end()) continue;
        for (const IntVec& i : iters) {
          for (const IntVec& j : it->second) {
            if (!i.lex_less(j)) continue;  // source strictly first
            if (schedule.at(j.to_vector()) < schedule.at(i.to_vector())) {
              out.push_back({r1, r2, i, j});
            }
          }
        }
      }
    }
  }
  return out;
}

// Execution position of every iteration under the plan: lexicographic rank
// of the transformed time, or the tiled visit order when the plan tiles.
std::map<std::vector<Int>, size_t> plan_schedule(const LoopNest& nest,
                                                 const VerifyPlan& plan,
                                                 const std::vector<IntVec>& pts) {
  std::map<std::vector<Int>, size_t> schedule;
  IntMat t = plan.combined(nest.depth());
  if (plan.has_tiling()) {
    std::vector<IntVec> order = tiled_order(nest, t, plan.tile_sizes);
    for (size_t p = 0; p < order.size(); ++p) schedule[order[p].to_vector()] = p;
    return schedule;
  }
  std::vector<IntVec> times;
  times.reserve(pts.size());
  for (const IntVec& p : pts) times.push_back(t * p);
  std::sort(times.begin(), times.end(),
            [](const IntVec& a, const IntVec& b) { return a.lex_less(b); });
  for (const IntVec& p : pts) {
    IntVec time = t * p;
    size_t rank = static_cast<size_t>(
        std::lower_bound(times.begin(), times.end(), time,
                         [](const IntVec& a, const IntVec& b) {
                           return a.lex_less(b);
                         }) -
        times.begin());
    schedule[p.to_vector()] = rank;
  }
  return schedule;
}

// Tight search budget keeps the non-uniform Fourier-Motzkin branches cheap
// across 300 cases; an exhausted budget soundly degrades the verdict to
// kUnproven (never to legal), which the assertions below tolerate.
VerifyOptions test_options() {
  VerifyOptions opts;
  opts.search_budget = 20'000;
  return opts;
}

void check_case(int seed, size_t depth) {
  auto rng = rng_for(seed);
  LoopNest nest = random_nest(rng, depth);
  VerifyPlan plan = random_plan(rng, depth);
  VerifyResult res = verify_plan(nest, plan, test_options());
  ASSERT_TRUE(res.structure_error.empty()) << res.structure_error;

  CertificateCheck check = check_certificate(nest, res);
  EXPECT_TRUE(check.ok) << "seed " << seed << ": "
                        << (check.failures.empty() ? "" : check.failures[0]);

  std::vector<IntVec> pts = box_points(nest.bounds());
  std::map<std::vector<Int>, size_t> schedule = plan_schedule(nest, plan, pts);
  std::vector<Reversal> reversed = oracle_reversals(nest, pts, schedule);

  // Certification looks at the plain transformed order for legality and at
  // the tiled order only through the tile-shape precondition, so compare
  // against the schedule certification actually speaks about.
  std::vector<Reversal> plain_reversed = reversed;
  if (plan.has_tiling()) {
    VerifyPlan untiled = plan;
    untiled.tile_sizes.clear();
    plain_reversed = oracle_reversals(nest, pts, plan_schedule(nest, untiled, pts));
  }

  if (res.legal) {
    // THE property: a legal verdict with a concrete reversed pair under the
    // transformed order is a soundness hole.
    EXPECT_TRUE(plain_reversed.empty())
        << "seed " << seed << ": verdict says legal but " << plain_reversed.size()
        << " conflicting pairs reverse, e.g. "
        << plain_reversed[0].src_iter.str() << " -> "
        << plain_reversed[0].dst_iter.str() << " under plan " << plan.str();
    // And a certified tiling plan must preserve order under the actual
    // tiled schedule as well.
    if (plan.has_tiling() && res.certified) {
      EXPECT_TRUE(reversed.empty())
          << "seed " << seed << ": certified tiling plan reverses "
          << reversed.size() << " pairs in tiled order, plan " << plan.str();
    }
  } else if (res.exact) {
    // Exact illegal verdicts must be real: the oracle sees the reversal too.
    bool any_memory_reversed = false;
    for (const DepVerdict& v : res.verdicts) {
      if (v.status == DepStatus::kReversed) any_memory_reversed = true;
    }
    if (any_memory_reversed) {
      EXPECT_FALSE(plain_reversed.empty())
          << "seed " << seed << ": exact reversed verdict but the oracle "
          << "finds no reversed pair, plan " << plan.str();
    }
  }
  if (res.exact && plain_reversed.empty()) {
    EXPECT_TRUE(res.legal) << "seed " << seed
                           << ": no pair reverses yet an exact verdict "
                           << "withholds legality, plan " << plan.str();
  }

  // Witness replay: every reversal witness is a concrete conflicting pair
  // whose order flips under the schedule it names.
  for (const DepVerdict& v : res.verdicts) {
    if (v.status != DepStatus::kReversed || !v.witness.has_value()) continue;
    const IterationWitness& w = *v.witness;
    ASSERT_TRUE(w.src_iter.lex_less(w.dst_iter)) << "seed " << seed;
    auto si = schedule.find(w.src_iter.to_vector());
    auto di = schedule.find(w.dst_iter.to_vector());
    if (!plan.has_tiling()) {
      ASSERT_NE(si, schedule.end());
      ASSERT_NE(di, schedule.end());
      EXPECT_LT(di->second, si->second)
          << "seed " << seed << ": witness does not replay, plan " << plan.str();
    }
    EXPECT_EQ(nest.all_refs()[v.src_ref].index_at(w.src_iter).to_vector(),
              nest.all_refs()[v.dst_ref].index_at(w.dst_iter).to_vector())
        << "seed " << seed << ": witness endpoints touch different elements";
  }
}

// ---------------------------------------------------------------------------
// 300 random (nest, plan) draws, one per parameter so ctest spreads them.

class VerifyProperty : public ::testing::TestWithParam<int> {};

TEST_P(VerifyProperty, LegalVerdictsMatchTheOrderOracle) {
  const int seed = GetParam();
  check_case(seed, /*depth=*/seed % 2 == 0 ? 2 : 3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VerifyProperty, ::testing::Range(0, 300));

// ---------------------------------------------------------------------------
// Determinism: the same case re-proved from 4 concurrent workers serializes
// to the byte-identical certificate produced serially.

// The certificate text certificate_json writes for a verdict.
std::string certificate_text(const LoopNest& nest, const VerifyResult& res) {
  std::string out;
  JsonWriter w(out);
  certificate_json(w, nest, res);
  return out;
}

TEST(VerifyPropertyThreads, CertificatesAreByteIdenticalAcrossThreads) {
  const int kCases = 40;
  std::vector<std::string> serial(kCases);
  for (int s = 0; s < kCases; ++s) {
    auto rng = rng_for(s);
    LoopNest nest = random_nest(rng, s % 2 == 0 ? 2 : 3);
    VerifyPlan plan = random_plan(rng, nest.depth());
    serial[static_cast<size_t>(s)] =
        certificate_text(nest, verify_plan(nest, plan, test_options()));
  }
  std::vector<std::string> threaded = parallel_map<std::string>(
      kCases, /*threads=*/4, [&](Int s) {
        auto rng = rng_for(static_cast<int>(s));
        LoopNest nest = random_nest(rng, s % 2 == 0 ? 2 : 3);
        VerifyPlan plan = random_plan(rng, nest.depth());
        return certificate_text(nest, verify_plan(nest, plan, test_options()));
      });
  for (int s = 0; s < kCases; ++s) {
    EXPECT_EQ(serial[static_cast<size_t>(s)], threaded[static_cast<size_t>(s)])
        << "case " << s;
  }
}

}  // namespace
}  // namespace lmre
