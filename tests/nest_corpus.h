#pragma once

// Random nest generators shared by the property_random* suites, and a
// nest corpus for tests that pin two code paths to the same answer: every
// examples/loops kernel (each phase of a multi-phase program) plus seeded
// random 2- and 3-deep nests from those generators and seeds.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "ir/parser.h"

namespace lmre::test {

inline std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; the loop files live in the
// source tree.  Probe a couple of plausible roots ("" when not found).
inline std::string example_loops_dir() {
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (!read_text(std::string(base) + "matmult.loop").empty()) return base;
  }
  return "";
}

using NamedNest = std::pair<std::string, LoopNest>;

// The property_random* suites' nest generators.  Each draws from the
// caller's engine, so a test can keep drawing from it afterwards.

// 1-d stream arrays in a 2-deep nest: the row minimizer's territory.
inline LoopNest random_stream2(std::mt19937& rng) {
  std::uniform_int_distribution<Int> coefd(-4, 4), off(0, 6), bound(5, 12);
  Int a1 = coefd(rng), a2 = coefd(rng);
  if (a1 == 0 && a2 == 0) a1 = 2;
  Int n1 = bound(rng), n2 = bound(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId x = b.array("X", {200});
  b.statement()
      .write(x, IntMat{{a1, a2}}, IntVec{off(rng) + 60})
      .read(x, IntMat{{a1, a2}}, IntVec{off(rng) + 60});
  return b.build();
}

// A 2-deep nest with a couple of 2-d uniformly generated references.
inline LoopNest random_nest2(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 8), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 6, n2 + 6});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3})
      .read(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3});
  return b.build();
}

// A 2-d array in a 3-deep nest: kernel-reuse (embedding) territory.
inline LoopNest random_kernel3(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 6), coefd(0, 2);
  NestBuilder b;
  b.loop("i", 1, bnd(rng)).loop("j", 1, bnd(rng)).loop("k", 1, bnd(rng));
  ArrayId a = b.array("A", {40, 40});
  Int c1 = coefd(rng) + 1, c2 = coefd(rng);
  b.statement().read(a, IntMat{{c1, 0, 1}, {0, 1, c2}}, IntVec{5, 5});
  return b.build();
}

// Random stencil nest: A[i][j] = f(A[i-di][j-dj]) with a forward (di,dj).
inline LoopNest random_stencil(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(4, 9), d1(1, 2), d2(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng);
  Int di = d1(rng), dj = d2(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 4, n2 + 8});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {2, 4})
      .read(a, {{1, 0}, {0, 1}}, {2 - di, 4 - dj});
  return b.build();
}

// Every examples/loops kernel (empty when the files are not found) plus 20
// nests from each random generator above.
inline std::vector<NamedNest> nest_corpus() {
  std::vector<NamedNest> corpus;
  const std::string dir = example_loops_dir();
  std::vector<std::filesystem::path> files;
  if (!dir.empty()) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".loop") files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    Program p = parse_program(read_text(f.string()));
    for (size_t k = 0; k < p.phase_count(); ++k) {
      corpus.emplace_back(f.stem().string() + "#" + std::to_string(k), p.phase_nest(k));
    }
  }
  // The seeds of the property_random* tests that draw these nests.
  for (int seed = 0; seed < 20; ++seed) {
    const std::string s = std::to_string(seed);
    std::mt19937 stream(0xC0FFEE + 6000 + seed), nest(0xBADC0DE + seed),
        kernel(0xBADC0DE + 500 + seed), stencil(0xFEEDF00D + seed);
    corpus.emplace_back("stream2/" + s, random_stream2(stream));
    corpus.emplace_back("nest2/" + s, random_nest2(nest));
    corpus.emplace_back("kernel3/" + s, random_kernel3(kernel));
    corpus.emplace_back("stencil/" + s, random_stencil(stencil));
  }
  return corpus;
}

}  // namespace lmre::test
