// Liveness bench: the paper's window (MWS) against Zhao-Malik style exact
// value liveness (reference [20], the work the introduction positions
// against) and the declared sizes, on the Figure-2 suite.
//
// The two metrics answer different questions:
//   * MWS  = buffer that captures ALL reuse (any re-touched location);
//   * live = minimum memory holding every value still needed.
// Both sit far below the declared sizes, which is the paper's point.

#include <iostream>

#include "codes/examples.h"
#include "codes/kernels.h"
#include "exact/liveness.h"
#include "exact/oracle.h"
#include "support/text.h"
#include "transform/minimizer.h"

using namespace lmre;

int main() {
  std::cout << "=== MWS vs exact value liveness (Zhao-Malik [20]) ===\n\n";
  TextTable t;
  t.header({"code", "default", "MWS", "live values", "inputs", "MWS red.",
            "live red."});
  for (auto& e : codes::figure2_suite()) {
    Int def = e.nest.default_memory();
    Int mws = simulate(e.nest).mws_total;
    LivenessStats live = min_memory_liveness(e.nest);
    t.row({e.name, with_commas(def), with_commas(mws), with_commas(live.max_live),
           with_commas(live.input_elements), percent(1.0 - double(mws) / def),
           percent(1.0 - double(live.max_live) / def)});
  }
  std::cout << t.render() << '\n';

  std::cout << "=== Transformations shrink both metrics (Example 8) ===\n\n";
  LoopNest nest = codes::example_8();
  auto res = minimize_mws_2d(nest);
  TextTable u;
  u.header({"order", "MWS", "live values"});
  u.row({"as written", std::to_string(simulate(nest).mws_total),
         std::to_string(min_memory_liveness(nest).max_live)});
  if (res) {
    u.row({"transformed " + res->transform.str(),
           std::to_string(simulate_transformed(nest, res->transform).mws_total),
           std::to_string(min_memory_liveness(nest, &res->transform).max_live)});
  }
  std::cout << u.render()
            << "\n=> estimating memory from value liveness alone (as [20] does)\n"
               "   misses that loop transformations can change it: the paper's\n"
               "   contribution is exactly that optimization step.\n";
  return 0;
}
