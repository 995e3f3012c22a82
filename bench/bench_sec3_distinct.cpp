// E2/E3/E4 -- Section 3: distinct-access estimation.
// Regenerates every number in Examples 2-6: the closed-form estimates, the
// paper's printed values, and the exact oracle counts.

#include <iostream>

#include "analysis/distinct.h"
#include "analysis/nonuniform.h"
#include "codes/examples.h"
#include "exact/oracle.h"
#include "ir/printer.h"
#include "support/text.h"
#include "symbolic/expr.h"

using namespace lmre;

namespace {

void uniform_row(TextTable& t, const std::string& name, const LoopNest& nest,
                 const std::string& paper_reuse, const std::string& paper_distinct) {
  DistinctEstimate e = estimate_distinct(nest, 0);
  TraceStats x = simulate(nest);
  t.row({name, to_string(e.method), paper_reuse, std::to_string(e.reuse),
         paper_distinct, std::to_string(e.distinct), std::to_string(x.distinct_total),
         e.exact_claimed ? "yes" : "no"});
}

}  // namespace

int main() {
  std::cout << "=== E2/E3: Section 3.1-3.2 -- distinct accesses, uniform refs ===\n\n";
  TextTable t;
  t.header({"example", "method", "reuse paper", "reuse ours", "distinct paper",
            "distinct ours", "distinct exact", "exact claimed"});
  uniform_row(t, "ex2 (A[i][j], A[i-1][j+2])", codes::example_2(), "72", "128");
  uniform_row(t, "ex3 (4 reads)", codes::example_3(), "261", "139");
  uniform_row(t, "ex4 (A[2i+5j+1])", codes::example_4(), "120", "80");
  uniform_row(t, "ex5 (A[3i+k][j+k])", codes::example_5(), "4131", "1869");
  uniform_row(t, "ex8 (2 refs, 1-d)", codes::example_8(), "-", "-");
  std::cout << t.render() << '\n';
  std::cout << "note: ex3's paper estimate (139) intentionally ignores triple\n"
               "overlaps; the true union is 121 (exact column).  Our\n"
               "inclusion-exclusion closed form (2^r box volumes, no\n"
               "enumeration) returns the true union: "
            << distinct_exact_inclusion_exclusion(codes::example_3(), 0)
            << ".\n\n";

  // Reuse along distance d is prod_k (N_k - |d_k|); distinct is r box
  // volumes minus the reuse.
  using S = SymbolicExpr;
  std::cout << "symbolic forms (valid for ALL bounds, not just the instances):\n"
            << "  ex2 reuse    = " << S::clamped_product({1, 2}).interior().str()
            << '\n'
            << "  ex2 distinct = "
            << (S::clamped_product({0, 0}, 2) - S::clamped_product({1, 2}))
                   .interior()
                   .str()
            << '\n'
            << "  ex4 distinct = "
            << (S::clamped_product({0, 0}) - S::clamped_product({5, 2}))
                   .interior()
                   .str()
            << '\n'
            << "  ex5 distinct = "
            << (S::clamped_product({0, 0, 0}) - S::clamped_product({1, 3, 3}))
                   .interior()
                   .str()
            << "\n\n";

  std::cout << "=== E4: Section 3.2 -- non-uniformly generated references ===\n\n";
  std::cout << print_nest(codes::example_6()) << '\n';
  NonUniformBounds b = nonuniform_bounds(codes::example_6(), 0);
  TraceStats x = simulate(codes::example_6());
  TextTable nu;
  nu.header({"quantity", "paper", "ours"});
  nu.row({"LB_min", "0", std::to_string(b.lb_min)});
  nu.row({"UB_max", "190", std::to_string(b.ub_max)});
  nu.row({"upper bound", "191", std::to_string(b.upper)});
  nu.row({"lower bound (paper rule)", "179", std::to_string(b.lower_paper)});
  nu.row({"lower bound (conservative)", "-", std::to_string(b.lower_conservative)});
  nu.row({"actual distinct", "181", std::to_string(x.distinct_total)});
  std::cout << nu.render();
  std::cout << "\nnote: the paper quotes 181 accesses for this loop; our oracle\n"
               "measures 182 -- within [lower, upper] either way.\n";
  return 0;
}
