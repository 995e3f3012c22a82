// Scenario: design-space exploration for one kernel.
//
// An embedded designer choosing (execution order x memory capacity x
// layout) for a kernel wants the Pareto picture: window size, cache misses,
// access energy, and outer-loop parallelism for each candidate order.  This
// example sweeps the candidates for the paper's Example 8 (or a kernel of
// your choice via flags) and prints the trade-off table the analysis makes
// possible without running the real workload once.
//
// Usage: design_space [--n1=25] [--n2=10] [--capacity=32]

#include <iostream>

#include "cachesim/cache.h"
#include "codes/examples.h"
#include "dependence/dependence.h"
#include "energy/model.h"
#include "exact/oracle.h"
#include "exact/stack_distance.h"
#include "layout/spatial.h"
#include "support/cli.h"
#include "support/text.h"
#include "transform/minimizer.h"
#include "transform/parallel.h"
#include "transform/unimodular.h"
#include "transform/wavefront.h"

using namespace lmre;

int main(int argc, char** argv) {
  Int n1 = 25, n2 = 10, cap = 32;
  Cli cli("design_space");
  cli.flag("n1", &n1, "outer bound");
  cli.flag("n2", &n2, "inner bound");
  cli.flag("capacity", &cap, "candidate on-chip capacity (elements)");
  if (auto rc = cli.parse_main(argc, argv)) return *rc;

  LoopNest nest = codes::example_8(n1, n2);
  auto layouts = default_layouts(nest);
  MemoryModel model;

  struct Candidate {
    std::string name;
    IntMat t;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"original", IntMat::identity(2)});
  auto memory = analyze_dependences(nest).distance_vectors(false);
  IntMat inter = interchange(2, 0, 1);
  if (is_legal(inter, memory)) candidates.push_back({"interchange", inter});
  if (auto res = minimize_mws_2d(nest)) {
    candidates.push_back({"window-minimal", res->transform});
  }
  if (auto wf = wavefront_transform(nest)) {
    candidates.push_back({"wavefront (parallel)", wf->transform});
  }

  std::cout << "Design space for X[2i+5j+1] = X[2i+5j+5], "
            << n1 << "x" << n2 << ", capacity "
            << cap << " elements:\n\n";
  TextTable t;
  t.header({"order", "window", "knee", "misses@cap", "hit rate", "energy/access",
            "parallel levels"});
  for (const auto& c : candidates) {
    TraceStats s = simulate_transformed(nest, c.t);
    StackDistanceProfile p = stack_distances(nest, &c.t);
    Int misses = p.lru_misses(cap);
    double hit = 1.0 - double(misses) / double(p.total_accesses);
    auto par = parallel_loops_after(nest, c.t);
    std::string pstr;
    for (bool b : par) pstr += b ? 'P' : 'S';
    char energy[32];
    std::snprintf(energy, sizeof energy, "%.2f",
                  model.energy_per_access(std::max<Int>(s.mws_total, 1)));
    t.row({c.name, with_commas(s.mws_total), with_commas(p.max_distance()),
           with_commas(misses), percent(hit), energy, pstr});
  }
  std::cout << t.render()
            << "\nwindow  = exact MWS in that order (scratchpad lower bound)\n"
               "knee    = max finite LRU stack distance (cold-only beyond it)\n"
               "P/S     = parallel/serial loop levels after the transform\n";
  return 0;
}
