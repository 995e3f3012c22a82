// Differential property suite for the closed-form symbolic analysis path:
// every formula the engine emits (per-array distinct / reuse / window,
// per-dependence reuse volumes, totals) must evaluate EXACTLY equal to the
// trace oracle at every concrete bound instantiation -- including
// degenerate trip-1 ranges and |d| >= N clamping edges -- on random
// uniform nests, the paper kernels, the shipped .loop corpus, and
// signed-permutation transform plans.  Declines are also checked: the
// engine must emit a diagnostic, never a wrong formula.  Fixed seeds so
// failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/reuse.h"
#include "codes/examples.h"
#include "codes/kernels.h"
#include "exact/oracle.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "program/program.h"
#include "support/parallel_for.h"
#include "symbolic/derive.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0x5E0D1FF + seed); }

// Same structure, different bounds: the derivation is bound-independent,
// so one SymbolicResult must predict every rebind exactly.
LoopNest rebind(const LoopNest& nest, const std::vector<Int>& trips) {
  return LoopNest(nest.loop_vars(), IntBox::from_upper_bounds(trips),
                  nest.arrays(), nest.statements());
}

Int oracle_value(const std::map<ArrayId, Int>& m, ArrayId id) {
  auto it = m.find(id);
  return it == m.end() ? 0 : it->second;
}

// Asserts every formula in `sym` (derived from `base`) against the oracle
// run of `inst` (a rebind of `base` with trip counts `trips`).
void check_against_oracle(const SymbolicResult& sym, const LoopNest& base,
                          const std::vector<Int>& trips,
                          const std::string& what) {
  SCOPED_TRACE(what);
  LoopNest inst = rebind(base, trips);
  TraceStats st = sym.plan ? simulate_transformed(inst, *sym.plan)
                           : simulate(inst);
  for (const SymbolicArrayResult& a : sym.arrays) {
    SCOPED_TRACE("array " + a.name);
    if (a.distinct) {
      EXPECT_EQ(a.distinct->eval(trips), oracle_value(st.distinct, a.id));
    }
    if (a.reuse) {
      EXPECT_EQ(a.reuse->eval(trips), oracle_value(st.reuse, a.id));
    }
    if (a.window) {
      EXPECT_EQ(a.window->eval(trips), oracle_value(st.mws, a.id));
    }
    IntBox box = IntBox::from_upper_bounds(trips);
    for (const SymbolicDependence& d : a.dependences) {
      EXPECT_EQ(d.volume.eval(trips), reuse_volume(d.distance, box))
          << d.distance.str();
    }
  }
  if (sym.distinct_total) {
    EXPECT_EQ(sym.distinct_total->eval(trips), st.distinct_total);
  }
  if (sym.reuse_total) {
    EXPECT_EQ(sym.reuse_total->eval(trips), st.reuse_total);
  }
  if (sym.window_total) {
    EXPECT_EQ(sym.window_total->eval(trips), st.mws_total);
  }
}

// Bound instantiation grid for a base nest: the nest's own trips plus
// degenerate, clamping-edge, and mixed variants (>= 5 per nest).
std::vector<std::vector<Int>> bound_grid(const LoopNest& nest, std::mt19937& rng) {
  const size_t n = nest.depth();
  std::vector<Int> own;
  for (size_t k = 0; k < n; ++k) own.push_back(nest.bounds().range(k).trip_count());
  std::vector<std::vector<Int>> grid;
  grid.push_back(own);
  grid.push_back(std::vector<Int>(n, 1));  // fully degenerate
  grid.push_back(std::vector<Int>(n, 2));  // at/below typical |d|
  grid.push_back(std::vector<Int>(n, 5));
  std::uniform_int_distribution<Int> b(1, 8);
  for (int v = 0; v < 2; ++v) {
    std::vector<Int> mixed;
    for (size_t k = 0; k < n; ++k) mixed.push_back(b(rng));
    mixed[v % n] = 1;  // keep one axis degenerate
    grid.push_back(mixed);
  }
  return grid;
}

void check_all_bounds(const LoopNest& base, std::mt19937& rng,
                      const std::string& what) {
  SymbolicResult sym = symbolic_analysis(base);
  // Either something was derived or the decline diagnostic is present.
  if (!sym.usable()) {
    bool has_decline = false;
    for (const Diagnostic& d : sym.diagnostics) {
      has_decline = has_decline || d.id == "LMRE-E017";
    }
    EXPECT_TRUE(has_decline) << what << ": unusable result without LMRE-E017";
  }
  for (const std::vector<Int>& trips : bound_grid(base, rng)) {
    std::ostringstream os;
    os << what << " @";
    for (Int t : trips) os << ' ' << t;
    check_against_oracle(sym, base, trips, os.str());
  }
}

std::vector<IntMat> signed_permutations(size_t depth) {
  if (depth == 2) {
    return {IntMat{{0, 1}, {1, 0}}, IntMat{{-1, 0}, {0, 1}},
            IntMat{{0, -1}, {1, 0}}};
  }
  return {IntMat{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
          IntMat{{0, 0, 1}, {0, 1, 0}, {-1, 0, 0}},
          IntMat{{-1, 0, 0}, {0, 0, -1}, {0, 1, 0}}};
}

void check_transformed(const LoopNest& base, std::mt19937& rng,
                       const std::string& what) {
  for (const IntMat& t : signed_permutations(base.depth())) {
    SymbolicResult sym = symbolic_analysis_transformed(base, t);
    for (const std::vector<Int>& trips : bound_grid(base, rng)) {
      std::ostringstream os;
      os << what << " plan @";
      for (Int v : trips) os << ' ' << v;
      check_against_oracle(sym, base, trips, os.str());
    }
  }
}

// ---- random nest generation ------------------------------------------------

IntMat random_unimodular(size_t n, std::mt19937& rng) {
  std::uniform_int_distribution<Int> coef(-2, 2);
  std::uniform_int_distribution<size_t> pick(0, n - 1);
  IntMat m = IntMat::identity(n);
  for (int ops = 0; ops < 2; ++ops) {
    size_t r = pick(rng), s = pick(rng);
    if (r == s) continue;
    for (size_t c = 0; c < n; ++c) {
      m(r, c) = checked_add(m(r, c), checked_mul(coef(rng), m(s, c)));
    }
  }
  return m;
}

LoopNest random_nest(int seed) {
  std::mt19937 rng = rng_for(seed);
  const size_t n = 2 + seed % 2;
  std::uniform_int_distribution<Int> bnd(3, 8), off(-2, 2), kcoef(-3, 3);
  std::uniform_int_distribution<int> dice(0, 3), refs_d(1, 3);

  NestBuilder b;
  const char* vars[] = {"i", "j", "k"};
  for (size_t d = 0; d < n; ++d) b.loop(vars[d], 1, bnd(rng));

  const int arrays = 1 + seed % 2;
  for (int a = 0; a < arrays; ++a) {
    std::string name(1, static_cast<char>('A' + a));
    const int regime = dice(rng);
    if (regime <= 1) {
      // Injective: identity (regime 0) or a random unimodular plan.
      IntMat acc = regime == 0 ? IntMat::identity(n) : random_unimodular(n, rng);
      ArrayId id = b.array(name, std::vector<Int>(n, 64));
      StatementBuilder st = b.statement();
      const int r = refs_d(rng);
      for (int i = 0; i < r; ++i) {
        IntVec o(n);
        for (size_t k = 0; k < n; ++k) o[k] = off(rng);
        if (i == 0) {
          st.write(id, acc, o);
        } else {
          st.read(id, acc, o);
        }
      }
    } else if (regime == 2) {
      // One-dimensional kernel, single reference (Section 3.2 shape).
      IntMat acc;
      if (n == 2) {
        Int x = kcoef(rng), y = kcoef(rng);
        if (x == 0 && y == 0) x = 1;
        acc = IntMat{{x, y}};
        ArrayId id = b.array(name, {512});
        b.statement().write(id, acc, IntVec{0});
      } else {
        acc = IntMat{{1, 0, kcoef(rng)}, {0, 1, kcoef(rng)}};
        ArrayId id = b.array(name, {64, 64});
        IntVec o(2);
        o[0] = off(rng);
        b.statement().write(id, acc, o);
      }
    } else {
      // Taller-than-deep injective access (d > n).
      IntMat acc(n + 1, n);
      for (size_t k = 0; k < n; ++k) acc(k, k) = 1;
      for (size_t c = 0; c < n; ++c) acc(n, c) = off(rng);
      ArrayId id = b.array(name, std::vector<Int>(n + 1, 64));
      StatementBuilder st = b.statement();
      IntVec o1(n + 1), o2(n + 1);
      for (size_t k = 0; k <= n; ++k) o2[k] = off(rng);
      st.write(id, acc, o1);
      if (seed % 3 == 0) st.read(id, acc, o2);
    }
  }
  return b.build();
}

// ---- suites ----------------------------------------------------------------

constexpr int kRandomNests = 300;

// The seeds fan out over `threads` at once, the way batch runs requests:
// each nest's derivation and oracle runs must not depend on what else runs.
void random_differential(int threads) {
  std::vector<int> derived = parallel_map<int>(kRandomNests, threads, [](Int s) {
    const int seed = static_cast<int>(s);
    LoopNest nest = random_nest(seed);
    std::mt19937 rng = rng_for(1000 + seed);
    check_all_bounds(nest, rng, "seed " + std::to_string(seed));
    if (seed % 4 == 0) {
      check_transformed(nest, rng, "seed " + std::to_string(seed));
    }
    return symbolic_analysis(nest).usable() ? 1 : 0;
  });
  // The generator must actually exercise the engine, not the decline path.
  EXPECT_GT(std::count(derived.begin(), derived.end(), 1), kRandomNests / 2);
}

TEST(PropertySymbolic, RandomNestsSerial) { random_differential(1); }

TEST(PropertySymbolic, RandomNestsParallel) { random_differential(4); }

TEST(PropertySymbolic, PaperKernels) {
  std::vector<std::pair<std::string, LoopNest>> kernels = {
      {"example_1a", codes::example_1a()}, {"example_1b", codes::example_1b()},
      {"example_2", codes::example_2(10, 10)}, {"example_3", codes::example_3()},
      {"example_4", codes::example_4()},   {"example_5", codes::example_5()},
      {"example_7", codes::example_7()},   {"example_8", codes::example_8()},
      {"matmult", codes::kernel_matmult(8)}};
  for (auto& [name, nest] : kernels) {
    std::mt19937 rng = rng_for(77);
    check_all_bounds(nest, rng, name);
    if (nest.depth() <= 3) check_transformed(nest, rng, name);
  }
}

// Every derived formula for Example 10 (= example_5) and the clamping edge
// cases the paper's formulas miss.
TEST(PropertySymbolic, Example10ClampingEdges) {
  LoopNest nest = codes::example_5();  // reuse vector (1, 3, -3)
  SymbolicResult sym = symbolic_analysis(nest);
  ASSERT_TRUE(sym.usable());
  // |d2| = 3 >= N2 and |d3| = 3 >= N3 edges, plus trip-1 axes.
  for (std::vector<Int> trips : std::vector<std::vector<Int>>{
           {10, 20, 30}, {10, 3, 30}, {10, 2, 30}, {10, 20, 3}, {10, 20, 2},
           {1, 20, 30}, {2, 3, 3}, {1, 1, 1}, {4, 4, 4}}) {
    check_against_oracle(sym, nest, trips, "ex10 edge");
  }
}

TEST(PropertySymbolic, LoopCorpus) {
  std::string dir;
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (std::filesystem::exists(base)) {
      dir = base;
      break;
    }
  }
  ASSERT_FALSE(dir.empty()) << "examples/loops not found";
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    Program program = parse_program(ss.str(), nullptr);
    for (size_t p = 0; p < program.phase_count(); ++p) {
      const LoopNest& nest = program.phase_nest(p);
      if (nest.iteration_count() > 100000) continue;
      std::mt19937 rng = rng_for(7 + static_cast<int>(p));
      check_all_bounds(nest, rng, entry.path().filename().string());
    }
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace lmre
