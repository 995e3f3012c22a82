// Quickstart: build a nest, estimate its memory needs, verify with the
// exact oracle, and let the optimizer shrink the window.
//
// Usage: quickstart [--n1=25] [--n2=10]

#include <iostream>

#include "analysis/report.h"
#include "codes/examples.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "ir/printer.h"
#include "support/cli.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"

using namespace lmre;

int main(int argc, char** argv) {
  Int n1 = 25, n2 = 10;
  Cli cli("quickstart");
  cli.flag("n1", &n1, "outer loop bound");
  cli.flag("n2", &n2, "inner loop bound");
  if (auto rc = cli.parse_main(argc, argv)) return *rc;

  // The paper's Example 8: X[2i+5j+1] = X[2i+5j+5].
  LoopNest nest = codes::example_8(n1, n2);
  std::cout << "== Input nest ==\n" << print_nest(nest) << '\n';

  // 1. Dependences.
  DependenceInfo info = analyze_dependences(nest);
  std::cout << "== Dependences ==\n";
  for (const auto& d : info.deps) {
    std::cout << "  " << to_string(d.kind) << ' ' << d.distance.str()
              << "  (level " << d.level() << ")\n";
  }

  // 2. Memory requirements: estimates next to exact values.
  std::cout << "\n== Memory report (untransformed) ==\n"
            << render(analyze_memory(nest));

  // 3. Optimize: search for a legal, tileable unimodular transformation
  //    minimizing the maximum window size.
  OptimizeResult opt = optimize_locality(nest);
  std::cout << "\n== Optimizer ==\nmethod: " << opt.method
            << "\nT = " << opt.transform.str() << '\n';

  TransformedNest tn(nest, opt.transform);
  std::cout << "\n== Transformed nest ==\n" << tn.print();

  TraceStats before = simulate(nest);
  TraceStats after = tn.simulate();
  std::cout << "\nexact MWS before: " << before.mws_total
            << "\nexact MWS after:  " << after.mws_total << '\n';
  return 0;
}
