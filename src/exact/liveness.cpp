#include "exact/liveness.h"

#include <algorithm>
#include <map>
#include <vector>

#include "exact/trace_engine.h"
#include "support/error.h"

namespace lmre {

namespace {

// Streaming value-liveness over the dense engine: instead of buffering the
// full per-element access history and segmenting it afterwards (the
// reference engine), each element carries a 3-state machine
//   0 = unseen, 1 = input value live (reads only so far), 2 = written
// plus the open segment's [birth, last_read] in the store's first/last
// slots.  Segments are emitted into the same delta arrays the reference's
// add_interval fills, in a per-element order that only permutes commutative
// +1/-1 events, so the sweep results are byte-identical.
struct LivenessSweep {
  const AddressPlan& plan;
  TraceArena& arena;
  LivenessStats stats;
  size_t horizon;
  std::vector<Int> delta_total;
  std::map<ArrayId, std::vector<Int>> delta;

  LivenessSweep(const AddressPlan& p, TraceArena& a, Int iterations)
      : plan(p),
        arena(a),
        horizon(static_cast<size_t>(iterations) + 2),
        delta_total(horizon, 0) {}

  void add_interval(ArrayId array, Int birth, Int last_use) {
    if (last_use < birth) return;  // dead value
    auto& d = delta[array];
    if (d.empty()) d.assign(horizon, 0);
    d[static_cast<size_t>(birth)] += 1;
    d[static_cast<size_t>(last_use) + 1] -= 1;
    delta_total[static_cast<size_t>(birth)] += 1;
    delta_total[static_cast<size_t>(last_use) + 1] -= 1;
  }

  // One access to `addr` of store `s` (owned by `array`) at `ordinal`.
  void touch(TraceArena::StoreBuf& s, ArrayId array, bool is_write, Int ordinal,
             std::uint64_t addr) {
    Int* birth;
    Int* last_read;
    unsigned char* tag;
    if (s.dense) {
      const size_t i = addr;
      birth = &s.first[i];
      last_read = &s.last[i];
      tag = &s.tag[i];
      if (*tag == 0) ++s.touched;
    } else {
      bool inserted = false;
      const size_t i = trace_detail::upsert_slot(s, addr, &inserted);
      birth = &s.kfirst[i];
      last_read = &s.klast[i];
      tag = &s.ktag[i];
    }
    switch (*tag) {
      case 0:  // unseen
        if (is_write) {
          *tag = 2;
          *birth = ordinal;
          *last_read = ordinal - 1;  // empty unless a read follows
        } else {
          // Upward-exposed input value, staged just in time.
          ++stats.input_elements;
          *tag = 1;
          *birth = ordinal;
          *last_read = ordinal;
        }
        break;
      case 1:  // input segment open
        if (is_write) {
          add_interval(array, *birth, *last_read);  // last_read >= birth
          *tag = 2;
          *birth = ordinal;
          *last_read = ordinal - 1;
        } else {
          *last_read = ordinal;
        }
        break;
      default:  // 2: write segment open
        if (is_write) {
          add_interval(array, *birth, *last_read);
          *birth = ordinal;
          *last_read = ordinal - 1;
        } else {
          *last_read = ordinal;
        }
        break;
    }
  }

  // Emits every element's still-open segment (an element whose last
  // access was a write at ordinal 0 has last_read -1: a dead value, which
  // the sweep skips either way).
  void flush() {
    for (size_t si = 0; si < plan.stores.size(); ++si) {
      const ArrayId array = plan.stores[si].array;
      trace_detail::for_each_touched(arena.store(si), [&](Int birth, Int last_read) {
        add_interval(array, birth, last_read);
      });
    }
  }

  LivenessStats finish() {
    flush();
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
};

}  // namespace

LivenessStats min_memory_liveness(const LoopNest& nest, const IntMat* transform,
                                  TraceArena& arena) {
  const TracePlan trace = plan_trace(nest, transform, /*liveness_order=*/true);
  const AddressPlan& plan = trace.addr;
  std::vector<ArrayId> arrays(plan.refs.size());
  for (size_t r = 0; r < plan.refs.size(); ++r) {
    arrays[r] = plan.stores[plan.refs[r].store].array;
  }
  LivenessSweep sweep(plan, arena, plan.iterations);
  run_trace(trace, arena, /*with_state=*/true,
            [&](TraceArena::StoreBuf& s, size_t r, Int ordinal,
                std::uint64_t addr) {
              sweep.touch(s, arrays[r], plan.refs[r].is_write, ordinal, addr);
            });
  return sweep.finish();
}

LivenessStats min_memory_liveness(const LoopNest& nest, const IntMat* transform) {
  TraceArena arena;
  return min_memory_liveness(nest, transform, arena);
}

}  // namespace lmre
