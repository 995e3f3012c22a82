#include "program/program.h"

#include <algorithm>
#include <string>
#include <vector>

#include "exact/trace_engine.h"
#include "support/error.h"

namespace lmre {

ProgramStats Program::simulate() const {
  TraceArena arena;
  return simulate(arena);
}

ProgramStats Program::simulate(TraceArena& arena) const {
  require(!phases_.empty(), "Program::simulate: no phases");
  std::vector<const LoopNest*> nests;
  for (const auto& phase : phases_) nests.push_back(&phase.nest);
  std::vector<std::vector<size_t>> store_of;
  const std::vector<AddressPlan::Store> stores = shared_stores(nests, &store_of);
  std::vector<std::string> store_name(stores.size());
  std::vector<TracePlan> plans(nests.size());
  ProgramStats stats;
  Int base = 0;
  for (size_t k = 0; k < nests.size(); ++k) {
    const LoopNest& nest = *nests[k];
    for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
      if (store_of[k][id] < stores.size()) {
        store_name[store_of[k][id]] = nest.array(id).name;
      }
    }
    plans[k].nest = &nest;
    plans[k].addr = AddressPlan::build(nest, nullptr, /*liveness_order=*/false,
                                       stores, store_of[k]);
    stats.phase_start.push_back(base);
    base = checked_add(base, plans[k].addr.iterations);
  }
  run_trace(plans.data(), plans.size(), arena, /*with_state=*/false,
            [](TraceArena::StoreBuf& s, size_t, Int ordinal, std::uint64_t addr) {
              trace_detail::touch_first_last(s, addr, ordinal);
            });
  for (size_t si = 0; si < stores.size(); ++si) {
    const Int touched = arena.store(si).touched;
    if (touched > 0) stats.distinct[store_name[si]] = touched;
  }
  stats.iterations = base;
  for (const auto& [name, count] : stats.distinct) {
    (void)name;
    stats.distinct_total += count;
  }
  for (const auto& [name, extents] : global_extents_) {
    (void)name;
    Int s = 1;
    for (Int e : extents) s = checked_mul(s, e);
    stats.default_memory = checked_add(stats.default_memory, s);
  }

  // One global first/last sweep; sample the running window at phase starts
  // and track per-phase peaks.
  const size_t horizon = static_cast<size_t>(stats.iterations) + 1;
  std::vector<Int> delta(horizon, 0);
  for (size_t si = 0; si < stores.size(); ++si) {
    trace_detail::for_each_touched(arena.store(si), [&](Int first, Int last) {
      if (first == last) return;
      delta[static_cast<size_t>(first)] += 1;
      delta[static_cast<size_t>(last)] -= 1;
    });
  }
  stats.handoff.assign(phases_.size(), 0);
  stats.phase_mws.assign(phases_.size(), 0);
  size_t phase = 0;
  Int cur = 0;
  for (size_t t = 0; t < horizon; ++t) {
    while (phase + 1 < phases_.size() &&
           static_cast<Int>(t) == stats.phase_start[phase + 1]) {
      ++phase;
      stats.handoff[phase] = cur;  // live set entering this phase
    }
    cur += delta[t];
    stats.mws_total = std::max(stats.mws_total, cur);
    stats.phase_mws[phase] = std::max(stats.phase_mws[phase], cur);
  }
  return stats;
}

}  // namespace lmre
