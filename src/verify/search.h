#pragma once

// The legality prover's witness searches (verify.h).  A search asks, for
// one ordered reference pair, for the lexicographically first source-first
// dependence instance whose transformed difference T d meets a target
// condition (a reversal, a negative row, a carry at some level).
//
// A SearchSpace describes the pair's candidate instances as a constraint
// system over the space's own variables x, with the iteration difference
// d = J - I the affine image  d = offset + lin * x:
//
//   * uniform pairs (lattice_space): the distances are exactly the integer
//     solutions of A d == b_src - b_dst, a coset p + H t of A's kernel
//     lattice (echelon_solutions).  The variables are t, dim ker A of them,
//     with realizability |d_k| <= trip_k - 1 as rows over t and no equality
//     rows.  H is in column-echelon form with positive pivots, so the
//     lex-first t of a branch maps to its lex-min d.  A kernel of dimension
//     0 makes every search a constant check; a pair without an integer
//     solution has no dependence (every search empty and complete);
//   * general (non-uniform) pairs (pair_space) use 2n variables x = (I, J),
//     both iterations boxed and the element equality
//     A_s I + b_s == A_d J + b_d as equality rows.
//
// A space whose construction overflows is `undecided`: every search on it
// reports incomplete, exactly like an exhausted step budget.  Each search
// adds a source-first branch (d lex-positive, decided at level p) and the
// target condition, asks Fourier-Motzkin for rational feasibility, then
// scans for the lex-first integer point with a step budget.

#include <optional>
#include <utility>
#include <vector>

#include "dependence/directions.h"
#include "ir/nest.h"
#include "linalg/mat.h"
#include "polyhedra/box.h"
#include "polyhedra/constraint.h"

namespace lmre {

struct SearchSpace {
  ConstraintSystem base{0};  ///< candidate instances, over dims() variables
  IntMat lin;                ///< n x dims(): d = offset + lin * x
  IntVec offset;             ///< n
  bool pairwise = false;     ///< x = (I, J) rather than a difference parameter
  bool undecided = false;    ///< construction overflowed: searches incomplete

  size_t n() const { return lin.rows(); }
  size_t dims() const { return base.dims(); }

  /// The affine form of d_k over the space's variables.
  AffineExpr delta(size_t k) const;

  /// The affine form of (T d)_r over the space's variables.
  AffineExpr trow(const IntMat& t, size_t r) const;

  /// The iteration pair (I, J), source first, of a found point (a
  /// difference-parameter point through corner_pair).
  std::pair<IntVec, IntVec> to_pair(const IntVec& x, const IntBox& box) const;
};

/// The iteration pair (I, I + d) with I at the box corner that keeps both
/// endpoints inside the box (a realizable d always fits).
std::pair<IntVec, IntVec> corner_pair(const IntVec& d, const IntBox& box);

/// The lattice space of a uniformly generated pair (src.access is A).
SearchSpace lattice_space(const ArrayRef& src, const ArrayRef& dst,
                          const IntBox& box);

/// The (I, J) space of a general pair.
SearchSpace pair_space(const ArrayRef& src, const ArrayRef& dst,
                       const IntBox& box);

struct SearchOutcome {
  std::optional<std::pair<IntVec, IntVec>> witness;  ///< (I, J), source first
  bool complete = true;  ///< false: some branch ran out of budget or overflowed
};

/// One branch of a search over the schedule T: a source-first instance
/// decided at `source_level` (d zero before it, positive at it) with
/// (T d)_r == 0 for r < `zero_rows` and sign * (T d)_row >= 1.
struct SearchBranch {
  size_t source_level = 0;
  size_t zero_rows = 0;
  size_t row = 0;
  Int sign = -1;
};

/// The lex-first (least d) instance of one branch.
SearchOutcome search_branch(const SearchSpace& space, const IntMat& t,
                            const SearchBranch& branch, const IntBox& box,
                            Int budget);

/// The searches below try their branches in order of source level, then
/// row, and return the first branch's witness.

/// A source-first instance whose transformed difference T d is
/// lexicographically negative (an execution-order reversal).
SearchOutcome find_reversal(const SearchSpace& space, const IntMat& t,
                            const IntBox& box, Int budget);

/// A source-first instance with (T d)_row <= -1 (tiling legality).
SearchOutcome find_negative_component(const SearchSpace& space, const IntMat& t,
                                      size_t row, const IntBox& box, Int budget);

/// A source-first instance carried at `level` (0-based) of the schedule t:
/// (T d) zero before `level` and positive at it.
SearchOutcome find_carried(const SearchSpace& space, const IntMat& t,
                           size_t level, const IntBox& box, Int budget);

/// Direction-restricted variants: the source-first branch is replaced by
/// the direction vector's own per-level constraints.
SearchOutcome find_reversal_dirs(const SearchSpace& space, const IntMat& t,
                                 const std::vector<Dir>& dirs, const IntBox& box,
                                 Int budget);
SearchOutcome find_negative_component_dirs(const SearchSpace& space,
                                           const IntMat& t,
                                           const std::vector<Dir>& dirs,
                                           size_t row, const IntBox& box,
                                           Int budget);

/// Any concrete pair realizing the direction vector.
SearchOutcome find_any_pair_dirs(const SearchSpace& space,
                                 const std::vector<Dir>& dirs, const IntBox& box,
                                 Int budget);

}  // namespace lmre
