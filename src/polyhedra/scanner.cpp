#include "polyhedra/scanner.h"

namespace lmre {

Int count_points(const ConstraintSystem& system) {
  Int n = 0;
  scan_rows(system, [&n](const IntVec&, Int lo, Int hi) {
    n = checked_add(n, checked_add(checked_sub(hi, lo), 1));
  });
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
