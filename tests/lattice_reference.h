#pragma once

// Brute-force reference for the dependence-lattice searches: enumerates
// every realizable solution of A d == c (|d_k| <= trip_k - 1) by scanning
// the bounded coefficient space of the kernel lattice.  Exact but
// unbounded in work, so it is only fit for small boxes; the differential
// suites pin lexmin_positive_solutions to its minimum.

#include <optional>
#include <vector>

#include "linalg/diophantine.h"
#include "polyhedra/box.h"
#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre::test {

inline std::vector<IntVec> realizable_solutions(const IntMat& a, const IntVec& c,
                                                const IntBox& box) {
  require(a.cols() == box.dims(), "realizable_solutions: shape mismatch");
  std::vector<IntVec> out;
  auto sol = solve_diophantine(a, c);
  if (!sol) return out;

  const size_t n = box.dims();
  const size_t kdim = sol->kernel.size();

  auto realizable = [&](const IntVec& d) {
    for (size_t k = 0; k < n; ++k) {
      if (checked_abs(d[k]) > box.range(k).trip_count() - 1) return false;
    }
    return true;
  };

  if (kdim == 0) {
    if (realizable(sol->particular)) out.push_back(sol->particular);
    return out;
  }

  // d = particular + K t ; constrain each component into
  // [-(trip_k - 1), trip_k - 1] and scan the resulting polytope over t.
  ConstraintSystem sys(kdim);
  for (size_t k = 0; k < n; ++k) {
    IntVec row(kdim);
    for (size_t j = 0; j < kdim; ++j) row[j] = sol->kernel[j][k];
    AffineExpr expr(row, sol->particular[k]);
    Int m = box.range(k).trip_count() - 1;
    sys.add_range(expr, -m, m);
  }
  scan(sys, [&](const IntVec& t) {
    IntVec d = sol->particular;
    for (size_t j = 0; j < kdim; ++j) d = d + sol->kernel[j] * t[j];
    ensure(realizable(d), "lattice scan produced unrealizable distance");
    out.push_back(d);
  });
  return out;
}

/// Lexicographically smallest positive member of realizable_solutions.
inline std::optional<IntVec> brute_lexmin_positive(const IntMat& a, const IntVec& c,
                                                   const IntBox& box) {
  std::optional<IntVec> best;
  for (const IntVec& d : realizable_solutions(a, c, box)) {
    if (!d.lex_positive()) continue;
    if (!best || d.lex_less(*best)) best = d;
  }
  return best;
}

}  // namespace lmre::test
