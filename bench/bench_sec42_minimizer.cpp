// E7 -- Section 4.2: the worked minimization example.
// Shows the tiling-legality constraint system, the candidate rows the search
// examines, the winning row's analytic estimate (22) against the exact
// optimum (21), and the unimodular completion of the winner.

#include <chrono>
#include <iostream>

#include "analysis/window.h"
#include "codes/examples.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "support/text.h"
#include "transform/minimizer.h"
#include "transform/unimodular.h"

using namespace lmre;

int main() {
  LoopNest nest = codes::example_8();
  std::cout << "=== E7: Section 4.2 worked example (minimizing eq. (2)) ===\n\n";

  auto deps = analyze_dependences(nest).distance_vectors(true);
  std::cout << "tiling-legality constraints on the first row (a, b):\n";
  for (const auto& d : deps) {
    std::cout << "  " << d[0] << "*a + (" << d[1] << ")*b >= 0   (dependence "
              << d.str() << ")\n";
  }
  std::cout << "(paper: 3a-2b >= 0, 2a >= 0, 5a-2b >= 0)\n\n";

  // Candidate table for small rows: the objective landscape of eq. (2).
  std::cout << "feasible candidate rows (|a|,|b| <= 4) and their estimates:\n";
  TextTable t;
  t.header({"(a, b)", "w = |5a-2b|", "maxspan", "eq.(2) estimate", "exact after T"});
  for (Int a = -4; a <= 4; ++a) {
    for (Int b = -4; b <= 4; ++b) {
      if ((a == 0 && b == 0) || gcd(a, b) != 1) continue;
      bool ok = true;
      for (const auto& d : deps) {
        if (a * d[0] + b * d[1] < 0) ok = false;
      }
      if (!ok) continue;
      Rational est = mws2_estimate(IntVec{2, 5}, nest.bounds(), a, b);
      if (est > Rational(60)) continue;  // keep the table readable
      Rational span = maxspan2(nest.bounds(), a, b);
      // Complete and measure when possible.
      MinimizerOptions opts;
      std::string exact = "-";
      // Reuse the library's completion by running the minimizer restricted
      // to this row via a tiny local search: simulate the completed matrix.
      Int x, y;
      if (extended_gcd(a, b, x, y) == 1) {
        for (auto base : {std::pair<Int, Int>{-y, x}, std::pair<Int, Int>{y, -x}}) {
          IntMat cand{{a, b}, {base.first, base.second}};
          if (cand.is_unimodular() && is_tileable(cand, deps)) {
            exact = std::to_string(simulate_transformed(nest, cand).mws_total);
            break;
          }
        }
      }
      t.row({"(" + std::to_string(a) + ", " + std::to_string(b) + ")",
             std::to_string(checked_abs(5 * a - 2 * b)), span.str(), est.str(), exact});
    }
  }
  std::cout << t.render() << '\n';

  auto res = minimize_mws_2d(nest);
  if (res) {
    std::cout << "minimizer result:\n"
              << "  first row        : " << res->transform.row(0).str()
              << "   (paper: (2, 3))\n"
              << "  analytic estimate: " << res->predicted_mws.str()
              << "        (paper: 22)\n"
              << "  completion       : " << res->transform.str() << '\n'
              << "  exact MWS after  : "
              << simulate_transformed(nest, res->transform).mws_total
              << "        (paper: actual minimum 21)\n"
              << "  rows examined    : " << res->candidates << '\n';
  }

  // The search on an enlarged configuration: widen the coefficient grid so
  // the scoring loop dominates the run time.
  std::cout << "\n=== row search at coeff_bound = 96 ===\n\n";
  MinimizerOptions large;
  large.coeff_bound = 96;
  auto start = std::chrono::steady_clock::now();
  auto run = minimize_mws_2d(nest, large);
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  if (run) {
    TextTable timing;
    timing.header({"wall time", "first row", "estimate", "rows"});
    timing.row({std::to_string(us) + " us", run->transform.row(0).str(),
                run->predicted_mws.str(), std::to_string(run->candidates)});
    std::cout << timing.render();
  }
  return 0;
}
