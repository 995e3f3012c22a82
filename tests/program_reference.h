#pragma once

// The hash-map whole-program trace: one (array name, index vector) key per
// touched element, first/last touch in an unordered_map, over every phase
// in order.  Program::simulate ran this trace before it moved onto the
// dense trace engine; the program differential suite pins the engine to
// it.  Exact but slow, so it is only fit for small programs.

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exact/oracle.h"
#include "program/program.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre::test {

inline ProgramStats simulate_program_reference(const Program& program) {
  require(program.phase_count() > 0, "Program::simulate: no phases");

  struct Key {
    std::string array;
    std::vector<Int> index;
    bool operator==(const Key& o) const {
      return array == o.array && index == o.index;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<std::string>()(k.array);
      for (Int v : k.index) {
        h ^= std::hash<Int>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<Key, std::pair<Int, Int>, KeyHash> touch;

  ProgramStats stats;
  std::map<std::string, std::vector<Int>> extents;
  Int base = 0;
  for (size_t k = 0; k < program.phase_count(); ++k) {
    const LoopNest& nest = program.phase_nest(k);
    for (const auto& a : nest.arrays()) extents.emplace(a.name, a.extents);
    stats.phase_start.push_back(base);
    Int local = 0;
    visit_iterations(nest, nullptr, [&](Int ordinal, const IntVec& iter) {
      local = ordinal + 1;
      Int global_ordinal = base + ordinal;
      for (const auto& stmt : nest.statements()) {
        for (const auto& ref : stmt.refs) {
          Key key{nest.array(ref.array).name, ref.index_at(iter).to_vector()};
          auto [it, inserted] =
              touch.try_emplace(key, std::make_pair(global_ordinal, global_ordinal));
          if (inserted) {
            ++stats.distinct[key.array];
          } else {
            it->second.second = global_ordinal;
          }
        }
      }
    });
    base = checked_add(base, local);
  }
  stats.iterations = base;
  for (const auto& [name, count] : stats.distinct) stats.distinct_total += count;
  for (const auto& [name, ext] : extents) {
    Int s = 1;
    for (Int e : ext) s = checked_mul(s, e);
    stats.default_memory = checked_add(stats.default_memory, s);
  }

  // One global first/last sweep; sample the running window at phase starts
  // and track per-phase peaks.
  const size_t phases = program.phase_count();
  const size_t horizon = static_cast<size_t>(stats.iterations) + 1;
  std::vector<Int> delta(horizon, 0);
  for (const auto& [key, fl] : touch) {
    if (fl.first == fl.second) continue;
    delta[static_cast<size_t>(fl.first)] += 1;
    delta[static_cast<size_t>(fl.second)] -= 1;
  }
  stats.handoff.assign(phases, 0);
  stats.phase_mws.assign(phases, 0);
  size_t phase = 0;
  Int cur = 0;
  for (size_t t = 0; t < horizon; ++t) {
    while (phase + 1 < phases && static_cast<Int>(t) == stats.phase_start[phase + 1]) {
      ++phase;
      stats.handoff[phase] = cur;  // live set entering this phase
    }
    cur += delta[t];
    stats.mws_total = std::max(stats.mws_total, cur);
    stats.phase_mws[phase] = std::max(stats.phase_mws[phase], cur);
  }
  return stats;
}

}  // namespace lmre::test
