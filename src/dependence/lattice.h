#pragma once

// Lex-min realizable dependence distances.
//
// For uniformly generated references the distance vectors are the integer
// solutions of  A d == c  (a coset of the kernel lattice of A) that are
// "realizable" in the iteration box: some iteration I has both I and I+d
// inside the box, i.e. |d_k| <= trip_k - 1 for every level of a
// constant-bound nest.

#include <optional>

#include "linalg/diophantine.h"
#include "polyhedra/box.h"

namespace lmre {

/// The paper's "dependence vector of interest" (Section 4.2) for both
/// orientations of one reference pair.
struct LexminPair {
  std::optional<IntVec> forward;   ///< lex-min positive realizable d, A d == c
  std::optional<IntVec> backward;  ///< the same for A d == -c
};

/// Lexicographically smallest *positive* realizable solutions of A d == c
/// and A d == -c.  Exact, without enumerating the lattice: the kernel
/// basis is put into column-echelon form, so d = p + H t grows
/// lexicographically with t, and a first-point search per level (deepest
/// first, d_0..d_{l-1} == 0 and d_l >= 1) lands on the minimum directly.
LexminPair lexmin_positive_solutions(const IntMat& a, const IntVec& c,
                                     const IntBox& box);

}  // namespace lmre
