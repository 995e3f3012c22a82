// Interactive optimizer demo: build a 2-deep stream loop
//   for i, j:  X[a1*i + a2*j + c1] = X[a1*i + a2*j + c2]
// from command-line flags, then run the full pipeline: dependences,
// window estimate, transformation search, and before/after verification.
//
// Usage: optimize_nest [--a1=2] [--a2=5] [--c1=1] [--c2=5] [--n1=25] [--n2=10]

#include <iostream>

#include "analysis/window.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "support/cli.h"
#include "support/error.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"

using namespace lmre;

int main(int argc, char** argv) {
  Int a1 = 2, a2 = 5, c1 = 1, c2 = 5, n1 = 25, n2 = 10, bound = 8;
  Cli cli("optimize_nest");
  cli.flag("a1", &a1, "subscript coefficient of i");
  cli.flag("a2", &a2, "subscript coefficient of j");
  cli.flag("c1", &c1, "write offset");
  cli.flag("c2", &c2, "read offset");
  cli.flag("n1", &n1, "outer bound");
  cli.flag("n2", &n2, "inner bound");
  cli.flag("bound", &bound, "coefficient search bound for the minimizer");
  if (auto rc = cli.parse_main(argc, argv)) return *rc;

  require(a1 != 0 || a2 != 0, "subscript must reference at least one index");

  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  Int reach = checked_abs(a1) * n1 + checked_abs(a2) * n2 +
              std::max(c1, c2) + 2;
  ArrayId x = b.array("X", {2 * reach + 1});
  // Shift offsets so all subscripts stay in range even for negative coeffs.
  Int base = reach;
  b.statement()
      .write(x, IntMat{{a1, a2}}, IntVec{c1 + base})
      .read(x, IntMat{{a1, a2}}, IntVec{c2 + base});
  LoopNest nest = b.build();

  std::cout << "== Input ==\n" << print_nest(nest) << '\n';

  DependenceInfo info = analyze_dependences(nest);
  std::cout << "== Dependences ==\n";
  for (const auto& d : info.deps) {
    std::cout << "  " << to_string(d.kind) << ' ' << d.distance.str() << '\n';
  }

  Rational before_est = mws2_estimate(IntVec{a1, a2}, nest.bounds(), 1, 0);
  Int before = simulate(nest).mws_total;
  std::cout << "\nwindow estimate (eq. 2, untransformed): " << before_est.str()
            << "\nwindow exact: " << before << '\n';

  MinimizerOptions opts;
  opts.coeff_bound = bound;
  auto res = minimize_mws_2d(nest, opts);
  if (!res) {
    std::cout << "\nno legal tileable transformation found within the bound.\n";
    return 0;
  }
  std::cout << "\n== Chosen transformation ==\nT = " << res->transform.str()
            << "  (analytic objective " << res->predicted_mws.str() << ", "
            << res->candidates << " rows examined)\n\n";
  TransformedNest tn(nest, res->transform);
  std::cout << "== Transformed loop ==\n" << tn.print();
  Int after = tn.simulate().mws_total;
  std::cout << "\nwindow exact after: " << after << "  ("
            << (before > 0 ? 100.0 * double(before - after) / double(before) : 0.0)
            << "% smaller)\n";
  return 0;
}
