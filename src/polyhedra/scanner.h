#pragma once

// Lexicographic enumeration of the integer points of a polyhedron.
//
// This is what "executing the loop nest" means to the exact oracle: visit
// every integer point of the (possibly transformed) iteration space in
// lexicographic order.

#include <functional>
#include <optional>

#include "polyhedra/constraint.h"
#include "polyhedra/fourier_motzkin.h"

namespace lmre {

/// Visitor invoked once per integer point, in lexicographic order.
using PointVisitor = std::function<void(const IntVec&)>;

/// Scans all integer points described by per-level bounds.
void scan(const LoopBounds& bounds, const PointVisitor& visit);

/// Convenience: extracts bounds from the system and scans.
void scan(const ConstraintSystem& system, const PointVisitor& visit);

/// Row visitor: invoked once per non-empty innermost row.  `point` has the
/// outer levels set to the row's prefix and the innermost level set to
/// `lo`; the innermost variable ranges over [lo, hi] inclusive.  Rows
/// arrive in the same lexicographic order scan() would visit their points,
/// letting callers step innermost-affine quantities incrementally instead
/// of re-evaluating them per point (the dense trace engine's hot path).
using RowVisitor = std::function<void(const IntVec& point, Int lo, Int hi)>;

/// Scans per-level bounds one innermost row at a time.
void scan_rows(const LoopBounds& bounds, const RowVisitor& visit);

/// Convenience: extracts bounds from the system and scans rows.
void scan_rows(const ConstraintSystem& system, const RowVisitor& visit);

/// Number of integer points in the polyhedron (exact, by enumeration).
Int count_points(const ConstraintSystem& system);

/// Result of a budget-capped point search (see first_point).
struct FirstPointResult {
  /// Lexicographically smallest integer point, when one was found.
  std::optional<IntVec> point;

  /// True when the search is authoritative: either a point was found or the
  /// whole polyhedron was exhausted within budget.  False means the budget
  /// ran out first -- absence of a point proves nothing.
  bool complete = true;
};

/// Lexicographically smallest integer point with an early exit and a step
/// budget (each candidate value tried at any level costs one step).  It
/// never enumerates past the first point found, and it abandons
/// pathological scans -- rationally feasible but integer-empty
/// systems can force exponentially many blind alleys -- once `step_budget`
/// is spent.  A nonzero `max_constraints` additionally caps the internal
/// Fourier-Motzkin bound extraction (see extract_loop_bounds): elimination
/// growth past the cap throws UnsupportedError instead of stalling.  The
/// legality prover (src/verify) runs all witness searches through this
/// entry point.
FirstPointResult first_point(const ConstraintSystem& system, Int step_budget,
                             size_t max_constraints = 0);

}  // namespace lmre
