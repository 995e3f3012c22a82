#include "exact/reference.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre {

namespace {

// Key for one touched element: array id + full index vector.
struct ElementKey {
  ArrayId array;
  std::vector<Int> index;
  bool operator==(const ElementKey& o) const {
    return array == o.array && index == o.index;
  }
};

struct ElementKeyHash {
  size_t operator()(const ElementKey& k) const {
    size_t h = std::hash<size_t>()(k.array);
    for (Int v : k.index) {
      h ^= std::hash<Int>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct FirstLast {
  Int first;
  Int last;
};

// Shared trace pass: computes first/last touch per element and the access
// counters; window statistics are derived from the event sweep.
struct Trace {
  std::unordered_map<ElementKey, FirstLast, ElementKeyHash> touch;
  Int iterations = 0;
  Int total_accesses = 0;
  std::map<ArrayId, Int> distinct;

  void touch_iteration(const LoopNest& nest, Int ordinal, const IntVec& iter) {
    if (ordinal + 1 > iterations) iterations = ordinal + 1;
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        ++total_accesses;
        IntVec idx = ref.index_at(iter);
        ElementKey key{ref.array, idx.data()};
        auto [it, inserted] = touch.try_emplace(key, FirstLast{ordinal, ordinal});
        if (inserted) {
          ++distinct[ref.array];
        } else {
          it->second.last = ordinal;
        }
      }
    }
  }

  void run(const LoopNest& nest, const IntMat* t) {
    visit_iterations(nest, t, [&](Int ordinal, const IntVec& iter) {
      touch_iteration(nest, ordinal, iter);
    });
  }
};

TraceStats stats_from_trace(const LoopNest& nest, Trace& trace) {
  TraceStats s;
  s.iterations = trace.iterations;
  s.total_accesses = trace.total_accesses;
  s.distinct = trace.distinct;
  for (const auto& [array, count] : s.distinct) {
    s.distinct_total = checked_add(s.distinct_total, count);
  }
  s.reuse_total = checked_sub(s.total_accesses, s.distinct_total);

  // Per-array access counts, to fill reuse per array.
  std::map<ArrayId, Int> accesses;
  for (const auto& stmt : nest.statements()) {
    for (const auto& ref : stmt.refs) {
      accesses[ref.array] = checked_add(accesses[ref.array], s.iterations);
    }
  }
  for (const auto& [array, count] : accesses) {
    s.reuse[array] = checked_sub(count, s.distinct.count(array) ? s.distinct[array] : 0);
  }

  // Window sweep: an element is in the window at ordinal t iff
  // first <= t < last.  Delta events: +1 at `first`, -1 at `last`.
  const size_t horizon = static_cast<size_t>(s.iterations) + 1;
  std::map<ArrayId, std::vector<Int>> delta;
  std::vector<Int> delta_total(horizon, 0);
  for (const auto& [key, fl] : trace.touch) {
    if (fl.first == fl.last) continue;  // never live across iterations
    auto& d = delta[key.array];
    if (d.empty()) d.assign(horizon, 0);
    d[static_cast<size_t>(fl.first)] += 1;
    d[static_cast<size_t>(fl.last)] -= 1;
    delta_total[static_cast<size_t>(fl.first)] += 1;
    delta_total[static_cast<size_t>(fl.last)] -= 1;
  }
  for (auto& [array, d] : delta) {
    Int cur = 0, best = 0;
    for (Int v : d) {
      cur += v;
      best = std::max(best, cur);
    }
    s.mws[array] = best;
  }
  // Arrays touched but never live across iterations still get an entry.
  for (const auto& [array, count] : s.distinct) {
    (void)count;
    s.mws.try_emplace(array, 0);
  }
  Int cur = 0;
  for (Int v : delta_total) {
    cur += v;
    s.mws_total = std::max(s.mws_total, cur);
  }
  return s;
}

LifetimeReport lifetimes_from_trace(const Trace& trace) {
  LifetimeReport rep;
  for (const auto& [key, fl] : trace.touch) {
    Int life = fl.last - fl.first;
    auto bump = [&](LifetimeStats& s) {
      s.elements += 1;
      if (life > 0) s.live_elements += 1;
      s.max_lifetime = std::max(s.max_lifetime, life);
      s.total_lifetime = checked_add(s.total_lifetime, life);
    };
    bump(rep.per_array[key.array]);
    bump(rep.total);
  }
  return rep;
}

}  // namespace

namespace reference {

TraceStats simulate(const LoopNest& nest) {
  Trace trace;
  trace.run(nest, nullptr);
  return stats_from_trace(nest, trace);
}

TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t) {
  Trace trace;
  trace.run(nest, &t);
  return stats_from_trace(nest, trace);
}

TraceStats simulate_order(const LoopNest& nest, const std::vector<IntVec>& order) {
  Trace trace;
  Int ordinal = 0;
  for (const IntVec& iter : order) {
    require(nest.bounds().contains(iter),
            "simulate_order: iteration outside the nest bounds");
    trace.iterations = ordinal + 1;
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        ++trace.total_accesses;
        IntVec idx = ref.index_at(iter);
        ElementKey key{ref.array, idx.data()};
        auto [it, inserted] = trace.touch.try_emplace(key, FirstLast{ordinal, ordinal});
        if (inserted) {
          ++trace.distinct[ref.array];
        } else {
          it->second.last = ordinal;
        }
      }
    }
    ++ordinal;
  }
  return stats_from_trace(nest, trace);
}

std::vector<Int> window_series(const LoopNest& nest, const IntMat& t) {
  Trace trace;
  trace.run(nest, &t);
  std::vector<Int> delta(static_cast<size_t>(trace.iterations) + 1, 0);
  for (const auto& [key, fl] : trace.touch) {
    (void)key;
    if (fl.first == fl.last) continue;
    delta[static_cast<size_t>(fl.first)] += 1;
    delta[static_cast<size_t>(fl.last)] -= 1;
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

LifetimeReport lifetime_report(const LoopNest& nest) {
  Trace trace;
  trace.run(nest, nullptr);
  return lifetimes_from_trace(trace);
}

LifetimeReport lifetime_report_transformed(const LoopNest& nest, const IntMat& t) {
  Trace trace;
  trace.run(nest, &t);
  return lifetimes_from_trace(trace);
}

namespace {

struct Access {
  Int ordinal;
  bool is_write;
};

}  // namespace

LivenessStats min_memory_liveness(const LoopNest& nest, const IntMat* transform) {
  std::unordered_map<ElementKey, std::vector<Access>, ElementKeyHash> history;
  Int iterations = 0;
  visit_iterations(nest, transform, [&](Int ordinal, const IntVec& iter) {
    iterations = ordinal + 1;
    for (const auto& stmt : nest.statements()) {
      // Reads before writes within a statement: the RHS is consumed before
      // the store happens, so "A[i] = A[i] + ..." reads the OLD value.
      for (const auto& ref : stmt.refs) {
        if (ref.is_write()) continue;
        ElementKey key{ref.array, ref.index_at(iter).data()};
        history[key].push_back(Access{ordinal, false});
      }
      for (const auto& ref : stmt.refs) {
        if (!ref.is_write()) continue;
        ElementKey key{ref.array, ref.index_at(iter).data()};
        history[key].push_back(Access{ordinal, true});
      }
    }
  });

  // Live intervals (inclusive of the final use: the value must be present
  // when it is read).  Events: +1 at birth, -1 at last_use + 1.
  LivenessStats stats;
  const size_t horizon = static_cast<size_t>(iterations) + 2;
  std::vector<Int> delta_total(horizon, 0);
  std::map<ArrayId, std::vector<Int>> delta;
  auto add_interval = [&](ArrayId array, Int birth, Int last_use) {
    if (last_use < birth) return;  // dead value
    auto& d = delta[array];
    if (d.empty()) d.assign(horizon, 0);
    d[static_cast<size_t>(birth)] += 1;
    d[static_cast<size_t>(last_use) + 1] -= 1;
    delta_total[static_cast<size_t>(birth)] += 1;
    delta_total[static_cast<size_t>(last_use) + 1] -= 1;
  };

  for (auto& [key, accesses] : history) {
    // Accesses arrive in execution order already (visit order), but within
    // one iteration a write can precede reads in statement order; that
    // granularity is below the iteration-level model, so ordering inside an
    // ordinal follows statement order as recorded.
    size_t i = 0;
    const size_t n = accesses.size();
    // Upward-exposed input value: staged just in time from the backing
    // store, so live from its FIRST use to its last read before the first
    // write.
    if (!accesses[0].is_write) {
      Int first_read = accesses[0].ordinal;
      Int last_read = accesses[0].ordinal;
      size_t j = 0;
      while (j < n && !accesses[j].is_write) {
        last_read = accesses[j].ordinal;
        ++j;
      }
      stats.input_elements += 1;
      add_interval(key.array, first_read, last_read);
      i = j;
    }
    // Each write starts a value; it lives until the last read before the
    // next write.
    while (i < n) {
      ensure(accesses[i].is_write, "liveness walk must be at a write");
      Int birth = accesses[i].ordinal;
      Int last_read = birth - 1;  // empty unless a read follows
      size_t j = i + 1;
      while (j < n && !accesses[j].is_write) {
        last_read = accesses[j].ordinal;
        ++j;
      }
      add_interval(key.array, birth, last_read);
      i = j;
    }
  }

  for (auto& [array, d] : delta) {
    Int cur = 0, best = 0;
    for (Int v : d) {
      cur += v;
      best = std::max(best, cur);
    }
    stats.per_array[array] = best;
  }
  Int cur = 0;
  for (Int v : delta_total) {
    cur += v;
    stats.max_live = std::max(stats.max_live, cur);
  }
  return stats;
}

}  // namespace reference

// The general-nest oracle stays on the enumeration engine: general spaces
// have no rectangular box to linearize against, and the entry point is cold
// (lint-sized inputs only).
TraceStats simulate_general(const GeneralNest& nest) {
  Trace trace;
  Int ordinal = 0;
  scan(nest.space(), [&](const IntVec& iter) {
    trace.iterations = ordinal + 1;
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        ++trace.total_accesses;
        ElementKey key{ref.array, ref.index_at(iter).data()};
        auto [it, inserted] = trace.touch.try_emplace(key, FirstLast{ordinal, ordinal});
        if (inserted) {
          ++trace.distinct[ref.array];
        } else {
          it->second.last = ordinal;
        }
      }
    }
    ++ordinal;
  });
  // The window sweep is recomputed directly (stats_from_trace wants a
  // rectangular LoopNest for its per-array reuse bookkeeping).
  TraceStats s;
  s.iterations = trace.iterations;
  s.total_accesses = trace.total_accesses;
  s.distinct = trace.distinct;
  for (const auto& [array, count] : s.distinct) {
    s.distinct_total = checked_add(s.distinct_total, count);
  }
  s.reuse_total = checked_sub(s.total_accesses, s.distinct_total);
  const size_t horizon = static_cast<size_t>(s.iterations) + 1;
  std::map<ArrayId, std::vector<Int>> delta;
  std::vector<Int> delta_total(horizon, 0);
  for (const auto& [key, fl] : trace.touch) {
    if (fl.first == fl.last) continue;
    auto& d = delta[key.array];
    if (d.empty()) d.assign(horizon, 0);
    d[static_cast<size_t>(fl.first)] += 1;
    d[static_cast<size_t>(fl.last)] -= 1;
    delta_total[static_cast<size_t>(fl.first)] += 1;
    delta_total[static_cast<size_t>(fl.last)] -= 1;
  }
  for (auto& [array, d] : delta) {
    Int cur = 0, best = 0;
    for (Int v : d) {
      cur += v;
      best = std::max(best, cur);
    }
    s.mws[array] = best;
  }
  for (const auto& [array, count] : s.distinct) {
    (void)count;
    s.mws.try_emplace(array, 0);
  }
  Int cur = 0;
  for (Int v : delta_total) {
    cur += v;
    s.mws_total = std::max(s.mws_total, cur);
  }
  return s;
}

}  // namespace lmre
