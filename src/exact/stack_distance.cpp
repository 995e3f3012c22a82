#include "exact/stack_distance.h"

#include <algorithm>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

Int StackDistanceProfile::lru_misses(Int capacity) const {
  require(capacity >= 0, "lru_misses: negative capacity");
  Int misses = cold_accesses;
  for (const auto& [d, count] : histogram) {
    if (d > capacity) misses = checked_add(misses, count);
  }
  return misses;
}

Int StackDistanceProfile::max_distance() const {
  return histogram.empty() ? 0 : histogram.rbegin()->first;
}

StackDistanceProfile stack_distances(const LoopNest& nest,
                                     const IntMat* transform,
                                     TraceArena& arena) {
  StackDistanceProfile profile;
  DistanceVisitOptions opts;
  opts.transform = transform;
  visit_stack_distances(nest, opts, arena, [&](size_t, Int distance) {
    ++profile.total_accesses;
    if (distance == 0) {
      ++profile.cold_accesses;
    } else {
      profile.histogram[distance] += 1;
    }
  });
  return profile;
}

StackDistanceProfile stack_distances(const LoopNest& nest,
                                     const IntMat* transform) {
  TraceArena arena;
  return stack_distances(nest, transform, arena);
}

StackDistanceProfile stack_distances_reference(const LoopNest& nest,
                                               const IntMat* transform) {
  // Classic stack algorithm: a list ordered most-recent-first; the distance
  // of a re-access is its 1-based position in the list.
  using Element = std::pair<ArrayId, IntVec>;
  std::list<Element> stack;
  std::map<Element, std::list<Element>::iterator> where;

  StackDistanceProfile profile;
  visit_iterations(nest, transform, [&](Int, const IntVec& iter) {
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        ++profile.total_accesses;
        Element key{ref.array, ref.index_at(iter)};
        auto it = where.find(key);
        if (it == where.end()) {
          ++profile.cold_accesses;
          stack.push_front(key);
          where[key] = stack.begin();
          continue;
        }
        // Distance = position of the element in the stack (1-based).
        Int distance = 1;
        for (auto walk = stack.begin(); walk != it->second; ++walk) ++distance;
        profile.histogram[distance] += 1;
        stack.erase(it->second);
        stack.push_front(key);
        it->second = stack.begin();
      }
    }
  });
  return profile;
}

}  // namespace lmre
