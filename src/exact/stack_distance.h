#pragma once

// Exact LRU stack (reuse) distances.
//
// The stack distance of an access is the number of distinct elements
// touched since the previous access to the same element.  Its histogram
// yields, in one pass, the hit count of EVERY fully-associative LRU cache
// size at once: a cache of capacity C hits exactly the accesses with stack
// distance <= C.  This links the paper's window analysis to miss curves:
// the curve flattens to cold misses once C covers the reuse the window
// describes.
//
// Two engines compute the same profile.  The primary path rides the dense
// trace engine (linearized u64 addresses in a TraceArena) and answers each
// access in O(log n) with a Fenwick tree over last-access ordinals: bit t
// is set while the element last touched at ordinal t has not been touched
// again, so the number of set bits between two accesses to one element is
// exactly the number of distinct elements in between.  The pre-engine
// MRU-list implementation (O(n) per access) is retained as
// stack_distances_reference -- the differential ground truth the tests
// hold the engine to; no production path calls it.

#include <cstdint>
#include <map>
#include <vector>

#include "exact/trace_engine.h"
#include "ir/nest.h"
#include "linalg/mat.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

struct StackDistanceProfile {
  /// histogram[d] = number of accesses with stack distance d (d >= 1);
  /// distance 0 is unused.
  std::map<Int, Int> histogram;
  Int cold_accesses = 0;  ///< first touches (infinite distance)
  Int total_accesses = 0;

  /// Misses of a fully-associative LRU cache with `capacity` elements:
  /// cold misses plus accesses with stack distance > capacity.
  Int lru_misses(Int capacity) const;

  /// Largest finite stack distance (the capacity beyond which only cold
  /// misses remain).
  Int max_distance() const;
};

/// Options for the generalized distance pass.
struct DistanceVisitOptions {
  const IntMat* transform = nullptr;  ///< execution order (unimodular) or null

  /// Hash-threshold spatial sampling over ELEMENTS (SHARDS): an element is
  /// in the sample iff a fixed hash of its address falls under
  /// rate * 2^64, so one element is kept or dropped at every access it
  /// receives, deterministically.  Distances are counted among sampled
  /// elements only (callers rescale by 1/rate); 1.0 visits everything.
  double sample_rate = 1.0;
  std::uint64_t seed = 0;  ///< salts the sampling hash; same seed, same sample
};

namespace stack_detail {

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
inline std::uint64_t sample_threshold(double rate) {
  return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
}

/// Swaps the element's last-touch ordinal for `ordinal`, returning the
/// previous one (kUntouchedLast == -1 on a first touch).  Mirrors
/// trace_detail::touch_first_last but surfaces the old ordinal, which is
/// what the Fenwick update needs.
inline Int exchange_last(TraceArena::StoreBuf& s, std::uint64_t addr,
                         Int ordinal) {
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

}  // namespace stack_detail

/// Calls visit(ref_index, distance) for every access to a sampled element,
/// in execution order.  `ref_index` indexes the nest's references in
/// statement order (the order of LoopNest::all_refs()); `distance` is 0
/// for a first touch (cold miss) and otherwise the 1-based LRU stack
/// distance among sampled elements.  Runs on the dense trace engine through
/// `arena`; throws OverflowError when a reference box has 2^63 or more
/// elements (the nests lint rejects with LMRE-E009).
template <class Visit>
void visit_stack_distances(const LoopNest& nest, const DistanceVisitOptions& opts,
                           TraceArena& arena, Visit&& visit) {
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
      exhaustive ? 0 : stack_detail::sample_threshold(opts.sample_rate);
  std::vector<std::uint64_t> salt(nrefs);
  for (size_t r = 0; r < nrefs; ++r) {
    salt[r] = trace_detail::mix_addr(
        opts.seed + 0x9e3779b97f4a7c15ULL *
                        static_cast<std::uint64_t>(plan.refs[r].store + 1));
  }

  const Int accesses = checked_mul(plan.iterations, static_cast<Int>(nrefs));
  stack_detail::OrdinalFenwick fen;
  fen.reset(static_cast<size_t>(accesses));
  // Every sampled element seen so far holds exactly one set bit, at its
  // last access, and every set bit lies before the current ordinal t: the
  // running count of distinct elements is prefix(t - 1), so one prefix
  // query per access suffices.
  Int seen = 0;
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
              const Int prev = stack_detail::exchange_last(s, addr, t);
              if (prev < 0) {
                ++seen;
                visit(r, Int{0});
              } else {
                visit(r, seen - fen.prefix(prev) + 1);
                fen.add(prev, -1);
              }
              fen.add(t, +1);
            });
}

/// Computes the exact element-granularity stack-distance profile of the
/// nest in original (`transform == nullptr`) or transformed order.
StackDistanceProfile stack_distances(const LoopNest& nest,
                                     const IntMat* transform = nullptr);

/// Same, reusing the caller's arena across runs (the minimizer/session
/// pattern: k candidates, one allocation footprint).
StackDistanceProfile stack_distances(const LoopNest& nest,
                                     const IntMat* transform, TraceArena& arena);

/// The pre-dense-engine implementation (MRU list + hash map, O(n) per
/// access), retained as the differential ground truth for the engine path.
StackDistanceProfile stack_distances_reference(const LoopNest& nest,
                                               const IntMat* transform = nullptr);

}  // namespace lmre
