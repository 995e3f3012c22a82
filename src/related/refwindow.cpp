#include "related/refwindow.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/lifetime.h"
#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre {

namespace {

// Lexicographic ordinal of an iteration in a box (mixed-radix position).
Int ordinal_of(const IntVec& iter, const IntBox& box) {
  Int ord = 0;
  for (size_t k = 0; k < box.dims(); ++k) {
    ord = checked_mul(ord, box.range(k).trip_count());
    ord = checked_add(ord, checked_sub(iter[k], box.range(k).lo));
  }
  return ord;
}

// Exact peak number of in-flight elements for one constant distance d: the
// source access at I is awaited until I + d executes.
Int exact_window_of_distance(const IntBox& box, const IntVec& d) {
  const Int total = box.volume();
  std::vector<Int> delta(static_cast<size_t>(total) + 1, 0);
  scan(box.to_constraints(), [&](const IntVec& i) {
    IntVec j = i + d;
    if (!box.contains(j)) return;
    delta[static_cast<size_t>(ordinal_of(i, box))] += 1;
    delta[static_cast<size_t>(ordinal_of(j, box))] -= 1;
  });
  Int cur = 0, best = 0;
  for (Int v : delta) {
    cur += v;
    best = std::max(best, cur);
  }
  return best;
}

}  // namespace

std::vector<DependenceWindow> dependence_windows(const LoopNest& nest) {
  DependenceInfo info = analyze_dependences(nest);
  std::vector<DependenceWindow> out;
  for (const auto& dep : info.deps) {
    DependenceWindow w;
    w.dep = dep;
    w.estimate = ordinal_distance(dep.distance, nest.bounds());
    w.exact = exact_window_of_distance(nest.bounds(), dep.distance);
    out.push_back(std::move(w));
  }
  return out;
}

Int per_dependence_cost(const LoopNest& nest) {
  DependenceInfo info = analyze_dependences(nest);
  const std::vector<ArrayRef>& refs = nest.all_refs();
  std::set<std::pair<ArrayId, IntVec>> seen;
  Int total = 0;
  for (const auto& dep : info.deps) {
    ArrayId array = refs[dep.src_ref].array;
    if (!seen.insert({array, dep.distance}).second) continue;
    total = checked_add(total, ordinal_distance(dep.distance, nest.bounds()));
  }
  return total;
}

}  // namespace lmre
