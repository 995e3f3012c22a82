#include "polyhedra/scanner.h"

namespace lmre {

namespace {

void scan_level(const LoopBounds& bounds, size_t level, IntVec& point,
                const PointVisitor& visit) {
  if (level == bounds.depth()) {
    visit(point);
    return;
  }
  Int lo, hi;
  if (!bounds.range(level, point, lo, hi)) return;
  for (Int v = lo; v <= hi; ++v) {
    point[level] = v;
    scan_level(bounds, level + 1, point, visit);
  }
  point[level] = 0;
}

void scan_rows_level(const LoopBounds& bounds, size_t level, IntVec& point,
                     const RowVisitor& visit) {
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
    scan_rows_level(bounds, level + 1, point, visit);
  }
  point[level] = 0;
}

}  // namespace

void scan(const LoopBounds& bounds, const PointVisitor& visit) {
  if (bounds.known_empty || bounds.depth() == 0) return;
  IntVec point(bounds.depth());
  scan_level(bounds, 0, point, visit);
}

void scan(const ConstraintSystem& system, const PointVisitor& visit) {
  scan(extract_loop_bounds(system), visit);
}

void scan_rows(const LoopBounds& bounds, const RowVisitor& visit) {
  if (bounds.known_empty || bounds.depth() == 0) return;
  IntVec point(bounds.depth());
  scan_rows_level(bounds, 0, point, visit);
}

void scan_rows(const ConstraintSystem& system, const RowVisitor& visit) {
  scan_rows(extract_loop_bounds(system), visit);
}

Int count_points(const ConstraintSystem& system) {
  Int n = 0;
  scan(system, [&n](const IntVec&) { ++n; });
  return n;
}

namespace {

enum class SearchState { kNotFound, kFound, kBudget };

SearchState first_point_level(const LoopBounds& bounds, size_t level,
                              IntVec& point, Int& budget) {
  if (level == bounds.depth()) return SearchState::kFound;
  Int lo, hi;
  if (!bounds.range(level, point, lo, hi)) return SearchState::kNotFound;
  for (Int v = lo; v <= hi; ++v) {
    if (budget-- <= 0) return SearchState::kBudget;
    point[level] = v;
    SearchState s = first_point_level(bounds, level + 1, point, budget);
    if (s != SearchState::kNotFound) return s;
  }
  point[level] = 0;
  return SearchState::kNotFound;
}

}  // namespace

FirstPointResult first_point(const ConstraintSystem& system, Int step_budget,
                             size_t max_constraints) {
  FirstPointResult result;
  LoopBounds bounds = extract_loop_bounds(system, max_constraints);
  if (bounds.known_empty || bounds.depth() == 0) return result;
  IntVec point(bounds.depth());
  Int budget = step_budget;
  switch (first_point_level(bounds, 0, point, budget)) {
    case SearchState::kFound:
      result.point = point;
      break;
    case SearchState::kNotFound:
      break;
    case SearchState::kBudget:
      result.complete = false;
      break;
  }
  return result;
}

}  // namespace lmre
