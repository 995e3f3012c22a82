// Oracle engine bench: retained hash-map reference engine vs the dense
// linearized-address engine on the 13-kernel suite (figure2 + extra), plus
// the minimize_mws_2d-style verify loop (k candidate transforms re-scored
// through one reused TraceArena).  Prints per-kernel speedup tables and writes BENCH_oracle.json (enveloped) into
// the current directory.
//
// With --check the bench turns into a perf gate: it exits nonzero if the
// dense engine is ever slower than 2x the reference on any kernel (or on
// the verify loop).  scripts/tier1.sh runs that gate.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "codes/extra_kernels.h"
#include "codes/kernels.h"
#include "exact/oracle.h"
#include "exact/reference.h"
#include "exact/trace_engine.h"
#include "support/json.h"
#include "support/text.h"
#include "transform/minimizer.h"

using namespace lmre;

namespace {

constexpr int kReps = 3;              // best-of timing, min over reps
constexpr double kCheckSlowdown = 2.0;  // --check: new must stay under 2x ref

double ms_since(std::chrono::steady_clock::time_point t0) {
  std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

/// Minimum wall-clock over kReps calls of `fn`.
template <typename Fn>
double best_of(Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < kReps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    double ms = ms_since(t0);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

std::vector<std::pair<std::string, LoopNest>> suite() {
  std::vector<std::pair<std::string, LoopNest>> kernels;
  for (auto& e : codes::figure2_suite()) kernels.emplace_back(e.name, e.nest);
  for (auto& [name, nest] : codes::extra_suite()) kernels.emplace_back(name, nest);
  return kernels;
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

std::string fmt_x(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", x);
  return buf;
}

bool same(const TraceStats& a, const TraceStats& b) {
  return a.iterations == b.iterations && a.total_accesses == b.total_accesses &&
         a.distinct_total == b.distinct_total && a.distinct == b.distinct &&
         a.reuse_total == b.reuse_total && a.reuse == b.reuse &&
         a.mws_total == b.mws_total && a.mws == b.mws;
}

/// The candidate set the optimize_locality verify loop re-scores for a
/// depth-2 nest: every signed permutation plus the row-minimizer winner.
std::vector<IntMat> verify_candidates(const LoopNest& nest) {
  std::vector<IntMat> set;
  const size_t n = nest.depth();
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  do {
    for (unsigned signs = 0; signs < (1u << n); ++signs) {
      IntMat t(n, n);
      for (size_t r = 0; r < n; ++r) t(r, perm[r]) = (signs >> r) & 1 ? -1 : 1;
      set.push_back(t);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (auto res = minimize_mws_2d(nest)) {
    if (std::find(set.begin(), set.end(), res->transform) == set.end()) {
      set.push_back(res->transform);
    }
  }
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  auto kernels = suite();
  bool ok = true;
  Json kernel_rows = Json::array();

  std::cout << "=== exact oracle: reference hash-map vs dense-address engine ===\n";
  TextTable t;
  t.header({"kernel", "iters", "ref (ms)", "dense (ms)", "speedup"});
  double ref_total = 0.0;
  double new_total = 0.0;
  for (auto& [name, nest] : kernels) {
    TraceStats ref_stats, new_stats;
    double ref_ms = best_of([&] { ref_stats = reference::simulate(nest); });
    double new_ms = best_of([&] { new_stats = simulate(nest); });  // fresh arena
    if (!same(ref_stats, new_stats)) {
      std::cout << "MISMATCH on " << name << '\n';
      ok = false;
    }
    ref_total += ref_ms;
    new_total += new_ms;
    double speedup = new_ms > 0.0 ? ref_ms / new_ms : 0.0;
    if (check && new_ms > kCheckSlowdown * ref_ms) {
      std::cout << "CHECK FAIL: " << name << " dense " << fmt_ms(new_ms)
                << "ms > " << kCheckSlowdown << "x ref " << fmt_ms(ref_ms)
                << "ms\n";
      ok = false;
    }
    t.row({name, std::to_string(nest.iteration_count()), fmt_ms(ref_ms),
           fmt_ms(new_ms), fmt_x(speedup)});
    kernel_rows.push(Json::object()
                         .set("kernel", name)
                         .set("iterations", nest.iteration_count())
                         .set("ref_ms", ref_ms)
                         .set("dense_ms", new_ms)
                         .set("speedup", speedup));
  }
  t.row({"TOTAL", "", fmt_ms(ref_total), fmt_ms(new_total),
         fmt_x(new_total > 0.0 ? ref_total / new_total : 0.0)});
  std::cout << t.render();
  kernel_rows.push(Json::object()
                       .set("kernel", "TOTAL")
                       .set("ref_ms", ref_total)
                       .set("dense_ms", new_total)
                       .set("speedup",
                            new_total > 0.0 ? ref_total / new_total : 0.0));

  // Verify-loop bench: the largest depth-2 kernel stands in for the
  // minimize_mws_2d verify workload -- every candidate transform simulated
  // through one arena (the candidate-reuse path) vs per-candidate hash maps.
  const LoopNest* verify_nest = nullptr;
  std::string verify_name;
  for (auto& [name, nest] : kernels) {
    if (nest.depth() != 2) continue;
    if (!verify_nest || nest.iteration_count() > verify_nest->iteration_count()) {
      verify_nest = &nest;
      verify_name = name;
    }
  }
  Json verify_doc = Json::object();
  if (verify_nest) {
    std::vector<IntMat> set = verify_candidates(*verify_nest);
    std::vector<Int> ref_mws, new_mws;
    double ref_ms = best_of([&] {
      ref_mws.clear();
      for (const IntMat& t : set) {
        ref_mws.push_back(reference::simulate_transformed(*verify_nest, t).mws_total);
      }
    });
    double new_ms = best_of([&] {
      new_mws.clear();
      TraceArena arena;  // one arena across all candidates, as the minimizer does
      for (const IntMat& t : set) {
        new_mws.push_back(simulate_transformed(*verify_nest, t, arena).mws_total);
      }
    });
    if (ref_mws != new_mws) {
      std::cout << "MISMATCH in verify-loop mws on " << verify_name << '\n';
      ok = false;
    }
    if (check && new_ms > kCheckSlowdown * ref_ms) {
      std::cout << "CHECK FAIL: verify loop dense " << fmt_ms(new_ms)
                << "ms > " << kCheckSlowdown << "x ref " << fmt_ms(ref_ms)
                << "ms\n";
      ok = false;
    }
    double speedup = new_ms > 0.0 ? ref_ms / new_ms : 0.0;
    TextTable t;
    t.header({"verify kernel", "candidates", "ref (ms)", "dense (ms)", "speedup"});
    t.row({verify_name, std::to_string(set.size()), fmt_ms(ref_ms),
           fmt_ms(new_ms), fmt_x(speedup)});
    std::cout << "-- minimize_mws_2d verify loop (arena candidate-reuse) --\n"
              << t.render();
    verify_doc.set("kernel", verify_name)
        .set("candidates", static_cast<Int>(set.size()))
        .set("ref_ms", ref_ms)
        .set("dense_ms", new_ms)
        .set("speedup", speedup);
  }

  Json doc = Json::object();
  doc.set("kernels", std::move(kernel_rows));
  doc.set("verify", std::move(verify_doc));
  doc.set("reps", Int{kReps});
  doc.set("check_slowdown_bound", kCheckSlowdown);
  doc.set("results_identical", ok);
  std::ofstream("BENCH_oracle.json")
      << json_envelope("bench-oracle", std::move(doc)).dump(2) << '\n';
  std::cout << "wrote BENCH_oracle.json\n";

  return ok ? 0 : 1;
}
