#include "exact/stack_distance.h"

#include <algorithm>
#include <functional>
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

namespace {

// Fenwick (binary indexed) tree over access ordinals.  Bit t stays set
// while the element whose most recent access happened at ordinal t has not
// been touched again, so the number of set bits in (p, t) is exactly the
// number of distinct elements accessed between two accesses to one element
// -- its stack distance minus one.  add/prefix are O(log accesses); the
// counts fit 32 bits because a subtree never holds more set bits than the
// trace has accesses (callers volume-gate long before 2^31).
class OrdinalFenwick {
 public:
  void reset(size_t n) { tree_.assign(n + 1, 0); }

  void add(Int pos, std::int32_t delta) {
    for (size_t i = static_cast<size_t>(pos) + 1; i < tree_.size();
         i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  /// Number of set ordinals in [0, pos]; pos == -1 yields 0.
  Int prefix(Int pos) const {
    Int sum = 0;
    for (size_t i = static_cast<size_t>(pos + 1); i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return sum;
  }

 private:
  std::vector<std::int32_t> tree_;
};

/// Keep an element iff hash < rate * 2^64.  Callers gate rate >= 1 as
/// "exhaustive" first, so the product stays strictly below 2^64 and the
/// cast is exact.
std::uint64_t sample_threshold(double rate) {
  return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
}

/// Swaps the element's last-touch ordinal for `ordinal`, returning the
/// previous one (kUntouchedLast == -1 on a first touch).  Mirrors
/// trace_detail::touch_first_last but surfaces the old ordinal, which is
/// what the Fenwick update needs.
Int exchange_last(TraceArena::StoreBuf& s, std::uint64_t addr, Int ordinal) {
  if (s.dense) {
    Int& last = s.last[addr];
    const Int prev = last;
    if (prev < 0) {
      s.first[addr] = ordinal;
      ++s.touched;
    }
    last = ordinal;
    return prev;
  }
  bool inserted = false;
  const size_t slot = trace_detail::upsert_slot(s, addr, &inserted);
  const Int prev = inserted ? TraceArena::kUntouchedLast : s.klast[slot];
  if (inserted) s.kfirst[slot] = ordinal;
  s.klast[slot] = ordinal;
  return prev;
}

}  // namespace

void visit_stack_distances(const LoopNest& nest, const DistanceVisitOptions& opts,
                           TraceArena& arena,
                           const std::function<void(size_t, Int)>& visit) {
  require(opts.sample_rate > 0.0 && opts.sample_rate <= 1.0,
          "visit_stack_distances: sample rate must be in (0, 1]");
  const TracePlan trace =
      plan_trace(nest, opts.transform, /*liveness_order=*/false);
  const AddressPlan& plan = trace.addr;
  const size_t nrefs = plan.refs.size();
  if (nrefs == 0 || plan.iterations == 0) return;

  // Per-store salts decorrelate the sample across arrays whose boxes share
  // address ranges; references to ONE array share a salt so the sampling
  // decision is a property of the element, not of the reference.
  const bool exhaustive = opts.sample_rate >= 1.0;
  const std::uint64_t threshold =
      exhaustive ? 0 : sample_threshold(opts.sample_rate);
  std::vector<std::uint64_t> salt(nrefs);
  for (size_t r = 0; r < nrefs; ++r) {
    salt[r] = trace_detail::mix_addr(
        opts.seed + 0x9e3779b97f4a7c15ULL *
                        static_cast<std::uint64_t>(plan.refs[r].store + 1));
  }

  const Int accesses = checked_mul(plan.iterations, static_cast<Int>(nrefs));
  OrdinalFenwick fen;
  fen.reset(static_cast<size_t>(accesses));
  // Global access ordinal: iteration ordinal (execution order) * refs per
  // iteration + reference slot.  Unsampled accesses still consume ordinals;
  // gaps are harmless because only sampled ordinals ever set bits.
  run_trace(trace, arena, /*with_state=*/false,
            [&](TraceArena::StoreBuf& s, size_t r, Int ordinal,
                std::uint64_t addr) {
              if (!exhaustive &&
                  trace_detail::mix_addr(addr ^ salt[r]) >= threshold) {
                return;
              }
              const Int t =
                  ordinal * static_cast<Int>(nrefs) + static_cast<Int>(r);
              const Int prev = exchange_last(s, addr, t);
              if (prev < 0) {
                visit(r, 0);
              } else {
                visit(r, fen.prefix(t - 1) - fen.prefix(prev) + 1);
                fen.add(prev, -1);
              }
              fen.add(t, +1);
            });
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
  using Element = std::pair<ArrayId, std::vector<Int>>;
  std::list<Element> stack;
  std::map<Element, std::list<Element>::iterator> where;

  StackDistanceProfile profile;
  visit_iterations(nest, transform, [&](Int, const IntVec& iter) {
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        ++profile.total_accesses;
        Element key{ref.array, ref.index_at(iter).data()};
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
