// Scenario: sizing the data memory of an embedded video pipeline.
//
// The paper's motivation (Section 1): declared array sizes wildly
// over-provision on-chip memory, because only a window of each array is live
// at any time.  This example sizes a scratchpad for a motion-estimation +
// filtering pipeline by analyzing each kernel's maximum window size, and
// prints the savings over declared-size provisioning.
//
// Usage: memory_sizing [--block=16] [--search=8] [--frames=100]

#include <iostream>

#include "analysis/report.h"
#include "codes/kernels.h"
#include "exact/oracle.h"
#include "support/cli.h"
#include "support/text.h"
#include "transform/minimizer.h"

using namespace lmre;

int main(int argc, char** argv) {
  Int block = 16, search = 8, frames = 100;
  Cli cli("memory_sizing");
  cli.flag("block", &block, "motion estimation block size");
  cli.flag("search", &search, "full-search displacement radius");
  cli.flag("frames", &frames, "RASTA frame count");
  if (auto rc = cli.parse_main(argc, argv)) return *rc;

  std::vector<std::pair<std::string, LoopNest>> pipeline;
  pipeline.emplace_back("full_search ME", codes::kernel_full_search(block, search));
  pipeline.emplace_back("3step_log ME", codes::kernel_three_step_log(block, search));
  pipeline.emplace_back("rasta filter", codes::kernel_rasta_flt(frames));
  pipeline.emplace_back("2point stencil", codes::kernel_two_point(64));

  std::cout << "Scratchpad sizing for the pipeline (one kernel at a time):\n\n";
  TextTable t;
  t.header({"kernel", "declared", "distinct", "window (as written)",
            "window (optimized)", "saving"});
  Int worst_declared = 0, worst_window = 0;
  for (auto& [name, nest] : pipeline) {
    TraceStats before = simulate(nest);
    OptimizeResult opt = optimize_locality(nest);
    Int after = simulate_transformed(nest, opt.transform).mws_total;
    Int declared = nest.default_memory();
    worst_declared = std::max(worst_declared, declared);
    worst_window = std::max(worst_window, after);
    t.row({name, with_commas(declared), with_commas(before.distinct_total),
           with_commas(before.mws_total), with_commas(after),
           percent(1.0 - double(after) / double(declared))});
  }
  std::cout << t.render() << '\n';

  std::cout << "Provisioning by declared sizes needs " << with_commas(worst_declared)
            << " elements of on-chip memory;\n"
            << "provisioning by optimized windows needs " << with_commas(worst_window)
            << " -- a " << percent(1.0 - double(worst_window) / double(worst_declared))
            << " reduction in the scratchpad\n"
            << "(smaller memory => lower per-access energy, latency and area;\n"
            << " Section 1 of the paper).\n";
  return 0;
}
