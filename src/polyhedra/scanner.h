#pragma once

// Lexicographic enumeration of the integer points of a polyhedron.
//
// This is what "executing the loop nest" means to the exact oracle: visit
// every integer point of the (possibly transformed) iteration space in
// lexicographic order.

#include <optional>

#include "polyhedra/constraint.h"
#include "polyhedra/fourier_motzkin.h"

namespace lmre {

namespace scan_detail {

// Visits the non-empty innermost rows of levels >= `level` under the outer
// prefix already in `point`, as visit(point, lo, hi) with point's innermost
// level set to lo.  Levels at and below `level` read 0 on return.
template <class RowFn>
void rows(const LoopBounds& bounds, size_t level, IntVec& point, RowFn& visit) {
  Int lo, hi;
  if (!bounds.range(level, point, lo, hi)) return;
  if (level + 1 == bounds.depth()) {
    if (lo > hi) return;
    point[level] = lo;
    visit(point, lo, hi);
    point[level] = 0;
    return;
  }
  for (Int v = lo; v <= hi; ++v) {
    point[level] = v;
    rows(bounds, level + 1, point, visit);
  }
  point[level] = 0;
}

}  // namespace scan_detail

/// Scans per-level bounds one innermost row at a time: visit(point, lo, hi)
/// runs once per non-empty row, with the outer levels of `point` set to the
/// row's prefix and the innermost level set to `lo`; the innermost variable
/// ranges over [lo, hi] inclusive.  Rows arrive in the lexicographic order
/// of their points, letting callers step innermost-affine quantities
/// incrementally instead of re-evaluating them per point (the dense trace
/// engine's hot path).
template <class RowFn>
void scan_rows(const LoopBounds& bounds, RowFn&& visit) {
  if (bounds.known_empty || bounds.depth() == 0) return;
  IntVec point(bounds.depth());
  scan_detail::rows(bounds, 0, point, visit);
}

/// Convenience: extracts bounds from the system and scans rows.
template <class RowFn>
void scan_rows(const ConstraintSystem& system, RowFn&& visit) {
  scan_rows(extract_loop_bounds(system), visit);
}

/// Scans all integer points described by per-level bounds, calling
/// visit(point) once per point in lexicographic order.
template <class PointFn>
void scan(const LoopBounds& bounds, PointFn&& visit) {
  const size_t inner = bounds.depth() - 1;  // unused when depth() == 0
  scan_rows(bounds, [&](IntVec& point, Int lo, Int hi) {
    for (Int v = lo; v <= hi; ++v) {
      point[inner] = v;
      visit(static_cast<const IntVec&>(point));
    }
  });
}

/// Convenience: extracts bounds from the system and scans.
template <class PointFn>
void scan(const ConstraintSystem& system, PointFn&& visit) {
  scan(extract_loop_bounds(system), visit);
}

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
