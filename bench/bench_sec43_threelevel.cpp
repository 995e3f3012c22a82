// E8 -- Section 4.3: maximum window size for 3-deep nests (Example 10) and
// the access-matrix-embedding transformation that collapses it to 1.

#include <iostream>

#include "analysis/window.h"
#include "codes/examples.h"
#include "exact/oracle.h"
#include "ir/printer.h"
#include "linalg/kernel.h"
#include "support/text.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"

using namespace lmre;

int main() {
  LoopNest nest = codes::example_5();  // Example 10 uses the same loop
  std::cout << "=== E8: Section 4.3 / Example 10 -- A[3i+k][j+k] ===\n\n"
            << print_nest(nest) << '\n';

  auto v = reuse_direction(nest.all_refs()[0].access);
  std::cout << "reuse (null-space) vector: " << v->str()
            << "   (paper: (1,3,-3); level " << v->level() << ")\n";
  std::cout << "symbolic window formula:   MWS(N1,N2,N3) = "
            << (symbolic_chain_window(*v, 3).interior() + 1).str()
            << "\n  (the paper's d1(N2-|d2|)(N3-|d3|) + |d2|(N3-|d3|) + 1, expanded)\n\n";

  TextTable t;
  t.header({"quantity", "paper", "ours"});
  t.row({"MWS 3-level formula", "540 (printed, no +1)",
         std::to_string(mws3_paper(*v, nest.bounds())) + " (with +1)"});
  t.row({"MWS generalized formula", "-",
         std::to_string(mws_from_reuse_vector(*v, nest.bounds()))});
  t.row({"MWS exact (oracle)", "-", std::to_string(simulate(nest).mws_total)});
  std::cout << t.render() << '\n';

  auto emb = embedding_transform(nest, 0);
  if (emb) {
    std::cout << "embedding transformation (first rows = access matrix):\n"
              << "  T = " << emb->str() << '\n';
    IntVec tv = ((*emb) * (*v)).primitive();
    std::cout << "  transformed reuse vector: " << tv.str() << "  level "
              << tv.level() << "   (paper: (0,0,1), level 3)\n";
    std::cout << "  exact MWS after T: "
              << simulate_transformed(nest, *emb).mws_total
              << "   (paper: reduces to one)\n\n";
    std::cout << "transformed loop:\n" << TransformedNest(nest, *emb).print() << '\n';
  }

  // Formula sweep: window size as the reuse vector's leading entries move
  // inward -- the paper's point that inner-carried reuse is cheap.
  std::cout << "window of reuse vector families over [1,10]x[1,20]x[1,30]:\n";
  TextTable sweep;
  sweep.header({"reuse vector", "level", "MWS formula"});
  for (IntVec d : {IntVec{1, 3, -3}, IntVec{1, 0, 0}, IntVec{0, 3, -3},
                   IntVec{0, 1, 0}, IntVec{0, 0, 3}, IntVec{0, 0, 1}}) {
    sweep.row({d.str(), std::to_string(d.level()),
               std::to_string(mws_from_reuse_vector(d, nest.bounds()))});
  }
  std::cout << sweep.render()
            << "\n=> raising the reuse level (carrying the dependence in an"
               "\n   inner loop) shrinks the window by orders of magnitude.\n";
  return 0;
}
