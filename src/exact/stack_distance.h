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
#include <functional>
#include <map>
#include <vector>

#include "ir/nest.h"
#include "linalg/mat.h"

namespace lmre {

class TraceArena;

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

/// Calls visit(ref_index, distance) for every access to a sampled element,
/// in execution order.  `ref_index` indexes the nest's references in
/// statement order (the order of LoopNest::all_refs()); `distance` is 0
/// for a first touch (cold miss) and otherwise the 1-based LRU stack
/// distance among sampled elements.  Runs on the dense trace engine through
/// `arena`; throws OverflowError when a reference box has 2^63 or more
/// elements (the nests lint rejects with LMRE-E009).
void visit_stack_distances(const LoopNest& nest, const DistanceVisitOptions& opts,
                           TraceArena& arena,
                           const std::function<void(size_t, Int)>& visit);

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
