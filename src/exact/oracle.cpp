#include "exact/oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "exact/trace_engine.h"
#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre {

void visit_iterations(const LoopNest& nest, const IntMat* t,
                      const std::function<void(Int, const IntVec&)>& body) {
  Int ordinal = 0;
  const std::optional<IntMat> t_inv = scan_inverse(nest, t);
  if (!t_inv) {
    scan(nest.bounds().to_constraints(), [&](const IntVec& iter) {
      body(ordinal++, iter);
    });
    return;
  }
  const IntBox& box = nest.bounds();
  scan(box.image_constraints(*t_inv), [&](const IntVec& u) {
    IntVec iter = *t_inv * u;
    ensure(box.contains(iter), "transformed scan left the iteration space");
    body(ordinal++, iter);
  });
}

namespace {

// The first/last-touch run of a planned trace; returns iterations visited.
Int run_first_last(const TracePlan& trace, TraceArena& arena) {
  return run_trace(trace, arena, /*with_state=*/false,
                   [](TraceArena::StoreBuf& s, size_t, Int ordinal,
                      std::uint64_t addr) {
                     trace_detail::touch_first_last(s, addr, ordinal);
                   });
}

// Derives TraceStats from a finished first/last run.  The math
// mirrors the reference engine's stats_from_trace exactly: same map keys,
// same delta-sweep horizons, same counter arithmetic.
TraceStats stats_from_stores(const AddressPlan& plan, TraceArena& arena,
                             Int iterations) {
  TraceStats s;
  s.iterations = iterations;
  s.total_accesses =
      checked_mul(iterations, static_cast<Int>(plan.refs.size()));

  std::vector<Int> ref_count(plan.stores.size(), 0);
  for (const auto& r : plan.refs) ++ref_count[r.store];

  const size_t horizon = static_cast<size_t>(iterations) + 1;
  std::vector<Int> delta_total(horizon, 0);
  std::vector<Int> d;
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    const ArrayId array = plan.stores[si].array;
    const TraceArena::StoreBuf& b = arena.store(si);
    if (b.touched > 0) {
      s.distinct[array] = b.touched;
      s.distinct_total = checked_add(s.distinct_total, b.touched);
    }
    s.reuse[array] =
        checked_sub(checked_mul(ref_count[si], iterations), b.touched);
    d.clear();
    trace_detail::for_each_touched(b, [&](Int first, Int last) {
      if (first == last) return;  // never live across iterations
      if (d.empty()) d.assign(horizon, 0);
      d[static_cast<size_t>(first)] += 1;
      d[static_cast<size_t>(last)] -= 1;
      delta_total[static_cast<size_t>(first)] += 1;
      delta_total[static_cast<size_t>(last)] -= 1;
    });
    if (!d.empty()) {
      Int cur = 0, best = 0;
      for (Int v : d) {
        cur += v;
        best = std::max(best, cur);
      }
      s.mws[array] = best;
    } else if (b.touched > 0) {
      // Touched but never live across iterations still gets an entry.
      s.mws[array] = 0;
    }
  }
  s.reuse_total = checked_sub(s.total_accesses, s.distinct_total);
  Int cur = 0;
  for (Int v : delta_total) {
    cur += v;
    s.mws_total = std::max(s.mws_total, cur);
  }
  return s;
}

// Lifetimes from one first/last run in original (null) or transformed
// order.
LifetimeReport lifetimes(const LoopNest& nest, const IntMat* transform,
                         TraceArena& arena) {
  const TracePlan trace = plan_trace(nest, transform, /*liveness_order=*/false);
  run_first_last(trace, arena);
  const AddressPlan& plan = trace.addr;
  LifetimeReport rep;
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    const TraceArena::StoreBuf& b = arena.store(si);
    if (b.touched == 0) continue;
    LifetimeStats& per = rep.per_array[plan.stores[si].array];
    trace_detail::for_each_touched(b, [&](Int first, Int last) {
      Int life = last - first;
      auto bump = [&](LifetimeStats& st) {
        st.elements += 1;
        if (life > 0) st.live_elements += 1;
        st.max_lifetime = std::max(st.max_lifetime, life);
        st.total_lifetime = checked_add(st.total_lifetime, life);
      };
      bump(per);
      bump(rep.total);
    });
  }
  return rep;
}

}  // namespace

TraceStats simulate(const LoopNest& nest) {
  TraceArena arena;
  return simulate(nest, 1, arena);
}

TraceStats simulate(const LoopNest& nest, int /*unused*/, TraceArena& arena) {
  const TracePlan trace = plan_trace(nest, nullptr, /*liveness_order=*/false);
  return stats_from_stores(trace.addr, arena, run_first_last(trace, arena));
}

TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t,
                                TraceArena& arena) {
  const TracePlan trace = plan_trace(nest, &t, /*liveness_order=*/false);
  return stats_from_stores(trace.addr, arena, run_first_last(trace, arena));
}

TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t) {
  TraceArena arena;
  return simulate_transformed(nest, t, arena);
}

TraceStats simulate_order(const LoopNest& nest,
                          const std::vector<IntVec>& order) {
  auto plan = AddressPlan::build(nest, nullptr, /*liveness_order=*/false);
  TraceArena arena;
  arena.prepare(plan, /*with_state=*/false);
  Int ordinal = 0;
  for (const IntVec& iter : order) {
    require(nest.bounds().contains(iter),
            "simulate_order: iteration outside the nest bounds");
    for (const AddressPlan::Ref& r : plan.refs) {
      trace_detail::touch_first_last(arena.store(r.store),
                                     trace_detail::plan_address(r, iter),
                                     ordinal);
    }
    ++ordinal;
  }
  arena.finish_run(plan);
  return stats_from_stores(plan, arena, ordinal);
}

LifetimeReport lifetime_report(const LoopNest& nest, TraceArena& arena) {
  return lifetimes(nest, nullptr, arena);
}

LifetimeReport lifetime_report(const LoopNest& nest) {
  TraceArena arena;
  return lifetime_report(nest, arena);
}

LifetimeReport lifetime_report_transformed(const LoopNest& nest,
                                           const IntMat& t,
                                           TraceArena& arena) {
  return lifetimes(nest, &t, arena);
}

LifetimeReport lifetime_report_transformed(const LoopNest& nest,
                                           const IntMat& t) {
  TraceArena arena;
  return lifetime_report_transformed(nest, t, arena);
}

std::vector<Int> window_series(const LoopNest& nest, const IntMat& t,
                               TraceArena& arena) {
  const TracePlan trace = plan_trace(nest, &t, /*liveness_order=*/false);
  const Int iters = run_first_last(trace, arena);
  std::vector<Int> delta(static_cast<size_t>(iters) + 1, 0);
  for (size_t si = 0; si < trace.addr.stores.size(); ++si) {
    trace_detail::for_each_touched(arena.store(si), [&](Int first, Int last) {
      if (first == last) return;
      delta[static_cast<size_t>(first)] += 1;
      delta[static_cast<size_t>(last)] -= 1;
    });
  }
  std::vector<Int> series;
  series.reserve(delta.size());
  Int cur = 0;
  for (Int v : delta) {
    cur += v;
    series.push_back(cur);
  }
  if (!series.empty()) series.pop_back();  // last entry is past the end
  return series;
}

std::vector<Int> window_series(const LoopNest& nest, const IntMat& t) {
  TraceArena arena;
  return window_series(nest, t, arena);
}

}  // namespace lmre
