#pragma once

// Lexicographic enumeration of the integer points of a polyhedron.
//
// This is what "executing the loop nest" means to the exact oracle: visit
// every integer point of the (possibly transformed) iteration space in
// lexicographic order.

#include <algorithm>
#include <optional>
#include <vector>

#include "polyhedra/box.h"
#include "polyhedra/constraint.h"
#include "polyhedra/fourier_motzkin.h"

namespace lmre {

namespace scan_detail {

// Visits the non-empty rows of level `last` under the prefix of levels
// < `level` already in `point`, as visit(point, lo, hi) with point[last]
// set to lo; levels after `last` are not scanned.  A non-null `tile`
// clamps each level k to tile[k].  Levels at and below `level` read 0 on
// return.
template <class RowFn>
void rows(const LoopBounds& bounds, const std::vector<Range>* tile, size_t level,
          size_t last, IntVec& point, RowFn& visit) {
  Int lo, hi;
  if (!bounds.range(level, point, lo, hi)) return;
  if (tile != nullptr) {
    lo = std::max(lo, (*tile)[level].lo);
    hi = std::min(hi, (*tile)[level].hi);
  }
  if (level == last) {
    if (lo > hi) return;
    point[level] = lo;
    visit(point, lo, hi);
    point[level] = 0;
    return;
  }
  for (Int v = lo; v <= hi; ++v) {
    point[level] = v;
    rows(bounds, tile, level + 1, last, point, visit);
  }
  point[level] = 0;
}

// Visits, in lexicographic order, the tiles of levels >= `level` under the
// outer tiles already in `tile` (later levels unclamped), scanning each
// tile's innermost rows.  A level's tiles are the union of the tile spans
// of its rows under the outer tiles, so the empty tiles of a skewed hull
// are never entered.
template <class RowFn>
void tiles(const LoopBounds& bounds, const IntBox& hull, const std::vector<Int>& sizes,
           size_t level, std::vector<Range>& tile, IntVec& point, RowFn& visit) {
  const size_t n = bounds.depth();
  if (level == n) {
    rows(bounds, &tile, 0, n - 1, point, visit);
    return;
  }
  const Int base = hull.range(level).lo;
  const Int s = sizes[level];
  std::vector<Range> spans;  // tile coordinates met by each row
  Int hi = INT64_MIN;
  auto span = [&](const IntVec&, Int l, Int h) {
    spans.push_back(Range{floor_div(checked_sub(l, base), s),
                          floor_div(checked_sub(h, base), s)});
    hi = std::max(hi, h);
  };
  rows(bounds, &tile, 0, level, point, span);
  std::sort(spans.begin(), spans.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  Int next = INT64_MIN;  // the first tile coordinate not yet visited
  for (const Range& sp : spans) {
    for (Int t = std::max(sp.lo, next); t <= sp.hi; ++t) {
      const Int first = checked_add(base, checked_mul(t, s));  // <= hi
      tile[level] = Range{first, first + std::min(s - 1, checked_sub(hi, first))};
      tiles(bounds, hull, sizes, level + 1, tile, point, visit);
    }
    next = std::max(next, checked_add(sp.hi, 1));
  }
  tile[level] = Range{INT64_MIN, INT64_MAX};
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
  scan_detail::rows(bounds, nullptr, 0, bounds.depth() - 1, point, visit);
}

/// The tiled order of per-level bounds, one innermost row at a time as in
/// scan_rows.  Tiles of edge sizes `sizes` (each >= 1) partition `hull`, a
/// box holding every point of the bounds, from its lower corner: tile tau
/// spans [lo_k + tau_k s_k, lo_k + tau_k s_k + s_k - 1] on axis k.  Tiles
/// come in lexicographic order of tau; inside a tile, rows come in
/// lexicographic order with every level clamped to the tile.  Under a
/// unimodular T over an iteration box, hull = box.image_hull(T) anchors
/// the tiles at the per-axis minimum of T * box.
template <class RowFn>
void scan_tiled_rows(const LoopBounds& bounds, const IntBox& hull,
                     const std::vector<Int>& sizes, RowFn&& visit) {
  const size_t n = bounds.depth();
  if (bounds.known_empty || n == 0) return;
  std::vector<Range> tile(n, Range{INT64_MIN, INT64_MAX});
  IntVec point(n);
  scan_detail::tiles(bounds, hull, sizes, 0, tile, point, visit);
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
