#pragma once

// Dense-address trace engine: the exact oracle's one execution engine.
//
// Instead of hashing a heap-allocated (array, index-vector) key per access,
// the engine precomputes, per array, a rectangular bounding box of every
// subscript's affine range over the iteration box and maps each touched
// element to a single row-major uint64 address inside that box.  Because
// subscripts are affine in the iteration vector, the linearized address is
// itself an affine function of the scan coordinates: per reference the plan
// stores its coefficient vector, and the scan drivers advance the address
// with ONE add per access in the innermost loop (incremental affine
// stepping).  Per-element state (first/last-touch ordinals, liveness
// machine state) lives in flat SoA storage -- dense vectors when the box is
// small relative to the trace, a flat linear-probe table keyed by the u64
// address when sparse.  See DESIGN.md section 10.
//
// Addresses are formed and stepped modulo 2^64.  The plan's one bound is
// the checked box volume (below 2^63, else OverflowError -- lint reports
// such nests as LMRE-E009 before any analysis runs): every executed
// access's true address lies in [0, volume), so its residue is exact, and
// only the discarded one-past-row overshoot can wrap.
//
// Every exact trace takes the same two steps: plan_trace checks and inverts
// the scan transform and builds the AddressPlan through the inverse, and
// run_trace prepares the arena, drives each planned nest (drive_box in
// original order and under signed permutations, whose image T * box is a
// box; drive_transformed under every other transform) and finishes the
// run.  A multi-phase program is one run over one plan per phase, the
// plans sharing one store per array name (shared_stores).
//
// A TraceArena owns the flat storage and is reusable across runs: evaluating
// k candidate transforms against one nest touches one allocation footprint
// instead of rebuilding hash maps per candidate.  The retained hash-map
// engine (reference.{h,cpp} in this directory) is the differential ground
// truth the tests hold this engine to; no production path calls it.

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/nest.h"
#include "linalg/mat.h"
#include "polyhedra/scanner.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

/// Cumulative engine instrumentation, owned by a TraceArena and exported
/// through the runtime Metrics registry (`oracle.*` names) by the session.
struct OracleStats {
  Int runs = 0;            ///< engine runs (simulate/liveness/... calls)
  Int dense_stores = 0;    ///< per-array stores that took the dense path
  Int sparse_stores = 0;   ///< per-array stores that took the probe table
  Int elements = 0;        ///< distinct elements touched across runs
  Int accesses = 0;        ///< accesses traced across runs
  Int sparse_probes = 0;   ///< linear-probe steps over all table operations
  Int sparse_ops = 0;      ///< table operations (probe-length denominator)
  double table_occupancy_peak = 0.0;  ///< max touched/capacity over tables
  Int arena_bytes = 0;             ///< current allocated store footprint
  Int arena_high_water_bytes = 0;  ///< peak footprint over the arena's life
};

/// Linearization plan for one (nest, execution order) pair: per-array
/// address boxes and per-reference affine address coefficients in the scan
/// coordinates (iteration space, or the transformed u-space when built with
/// the transform's inverse).
struct AddressPlan {
  struct Store {
    ArrayId array = 0;
    std::vector<Int> lo;      ///< per-dimension box lower bound
    std::vector<Int> stride;  ///< row-major strides over the box
    Int volume = 0;           ///< product of box extents
    bool dense = true;        ///< flat vectors vs linear-probe table
    Int accesses = 0;         ///< traced accesses to this array
  };
  struct Ref {
    size_t store = 0;   ///< index into stores
    bool is_write = false;
    std::vector<std::uint64_t> coef;  ///< address coefficients (mod 2^64)
    std::uint64_t c0 = 0;             ///< address constant term (mod 2^64)
  };

  std::vector<Store> stores;  ///< one per referenced array, ArrayId ascending
  std::vector<Ref> refs;      ///< per-iteration access order
  size_t depth = 0;
  Int iterations = 0;  ///< iteration-space volume (0 for depth-0 nests)

  /// Builds the plan.  `t_inv` is the inverse of the scan transform (null
  /// for original order): address coefficients are composed through it so
  /// stepping happens directly in u-space.  `liveness_order` lists each
  /// statement's reads before its writes (the value-liveness access order);
  /// otherwise refs appear in statement order.
  /// Throws OverflowError naming the array when its reference box has
  /// 2^63 or more elements (or a subscript range leaves 64-bit arithmetic).
  static AddressPlan build(const LoopNest& nest, const IntMat* t_inv,
                           bool liveness_order);

  /// Builds the plan of one nest of a multi-nest trace over the given store
  /// set (see shared_stores): refs address store store_of[id] for the
  /// nest's array id.
  static AddressPlan build(const LoopNest& nest, const IntMat* t_inv,
                           bool liveness_order, std::vector<Store> stores,
                           const std::vector<size_t>& store_of);
};

/// The dense-path rule: true when a store of `volume` elements, into which
/// `accesses` accesses will be traced, is kept as flat vectors over its box
/// rather than a linear-probe table.  emit_c indexes its elements by the
/// same rule.
bool dense_store(Int volume, Int accesses);

/// The one store set of nests traced as one run (the phases of a program):
/// arrays are unified by name, in order of first reference; each name's box
/// is the union of its reference boxes over every nest, and its traced
/// accesses are the sum.  Sets (*store_of)[k][id] to the store of nest k's
/// array id (unreferenced arrays get none).  Throws OverflowError naming
/// the array when a box has 2^63 or more elements, or a subscript range
/// leaves 64-bit arithmetic.
std::vector<AddressPlan::Store> shared_stores(
    const std::vector<const LoopNest*>& nests,
    std::vector<std::vector<size_t>>* store_of);

/// Reusable flat storage for trace runs plus cumulative OracleStats.  Not
/// thread-safe: one arena serves one run at a time.
class TraceArena {
 public:
  OracleStats& stats() { return stats_; }
  const OracleStats& stats() const { return stats_; }

  /// Engine-internal per-array store buffer (exposed for the inline touch
  /// helpers and the drivers; not part of the public surface).
  struct StoreBuf {
    bool dense = true;
    Int volume = 0;
    // Dense SoA: first/last-touch ordinals (liveness reuses them as
    // birth/last-read).  first inits to kUntouchedFirst and last to
    // kUntouchedLast; last < 0 marks an untouched element.
    std::vector<Int> first, last;
    std::vector<unsigned char> tag;  ///< liveness machine state (dense)
    // Sparse: open-addressing linear-probe table, key = address + 1
    // (0 marks an empty slot), power-of-two capacity.
    std::vector<std::uint64_t> keys;
    std::vector<Int> kfirst, klast;
    std::vector<unsigned char> ktag;
    std::uint64_t mask = 0;  ///< capacity - 1
    bool with_state = false;
    Int touched = 0;
    Int probes = 0;     ///< per-run probe steps
    Int probe_ops = 0;  ///< per-run table operations
  };

  static constexpr Int kUntouchedFirst = INT64_MAX;
  static constexpr Int kUntouchedLast = -1;

  /// Resets (and, when needed, grows) the store set for the plan, reusing
  /// previously allocated buffers.  `with_state` additionally prepares the
  /// liveness tag storage.
  void prepare(const AddressPlan& plan, bool with_state);

  StoreBuf& store(size_t idx) { return stores_[idx]; }

  /// Folds the finished run's instrumentation (elements, probe counts,
  /// store kinds, occupancy, footprint high-water) into stats().
  void finish_run(const AddressPlan& plan);

 private:
  std::vector<StoreBuf> stores_;
  OracleStats stats_;
};

namespace trace_detail {

/// splitmix64 finalizer: the bucket hash of the sparse tables.
inline std::uint64_t mix_addr(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Doubles a sparse table's capacity and rehashes every occupied slot.
void grow_table(TraceArena::StoreBuf& s);

/// Finds the slot for `addr`, inserting an empty entry (first/last
/// untouched, tag 0) when absent.  Returns the slot index; sets *inserted.
inline size_t upsert_slot(TraceArena::StoreBuf& s, std::uint64_t addr,
                          bool* inserted) {
  const std::uint64_t key = addr + 1;
  std::uint64_t i = mix_addr(addr) & s.mask;
  Int probes = 1;
  while (s.keys[i] != 0 && s.keys[i] != key) {
    i = (i + 1) & s.mask;
    ++probes;
  }
  s.probes += probes;
  ++s.probe_ops;
  if (s.keys[i] == key) {
    *inserted = false;
    return static_cast<size_t>(i);
  }
  s.keys[i] = key;
  s.kfirst[i] = TraceArena::kUntouchedFirst;
  s.klast[i] = TraceArena::kUntouchedLast;
  if (s.with_state) s.ktag[i] = 0;
  ++s.touched;
  *inserted = true;
  if (s.touched * 10 > static_cast<Int>(s.mask + 1) * 7) {
    grow_table(s);
    // Re-locate after the rehash so the caller's slot index stays valid.
    std::uint64_t j = mix_addr(addr) & s.mask;
    while (s.keys[j] != key) j = (j + 1) & s.mask;
    return static_cast<size_t>(j);
  }
  return static_cast<size_t>(i);
}

/// Records a first/last touch at `addr` with ordinal `ordinal`.
inline void touch_first_last(TraceArena::StoreBuf& s, std::uint64_t addr,
                             Int ordinal) {
  if (s.dense) {
    if (s.last[addr] < 0) {
      s.first[addr] = ordinal;
      s.last[addr] = ordinal;
      ++s.touched;
    } else {
      s.last[addr] = ordinal;
    }
    return;
  }
  bool inserted = false;
  size_t slot = upsert_slot(s, addr, &inserted);
  if (inserted) s.kfirst[slot] = ordinal;
  s.klast[slot] = ordinal;
}

/// Visits every touched element of a store as fn(first, last).
template <class Fn>
void for_each_touched(const TraceArena::StoreBuf& s, Fn&& fn) {
  if (s.dense) {
    for (size_t a = 0; a < static_cast<size_t>(s.volume); ++a) {
      if (s.last[a] >= 0) fn(s.first[a], s.last[a]);
    }
    return;
  }
  for (size_t i = 0; i < s.keys.size(); ++i) {
    if (s.keys[i] != 0) fn(s.kfirst[i], s.klast[i]);
  }
}

/// Evaluates a plan ref's address at an arbitrary scan point (the
/// non-incremental path: simulate_order and row bases), modulo 2^64: at an
/// executed point the true address is in [0, volume), so the residue is it.
inline std::uint64_t plan_address(const AddressPlan::Ref& r,
                                  const IntVec& point) {
  std::uint64_t a = r.c0;
  for (size_t k = 0; k < r.coef.size(); ++k) {
    a += r.coef[k] * static_cast<std::uint64_t>(point[k]);
  }
  return a;
}

}  // namespace trace_detail

/// Drives the original-order scan of a rectangular box with
/// incremental affine stepping: per innermost row, each reference's base
/// address is evaluated once and then advanced by its innermost coefficient
/// per iteration.  `touch(ref_index, ordinal, addr)` runs per access;
/// ordinals start at `ordinal`.  Returns the ordinal after the last
/// iteration.
template <class TouchFn>
Int drive_box(const AddressPlan& plan, const IntBox& box, Int ordinal,
              TouchFn&& touch) {
  const size_t n = box.dims();
  if (n == 0) return ordinal;
  for (size_t k = 0; k < n; ++k) {
    if (box.range(k).trip_count() <= 0) return ordinal;
  }
  const size_t nrefs = plan.refs.size();
  const Int inner_trip = box.range(n - 1).trip_count();
  IntVec point(n);
  for (size_t k = 0; k < n; ++k) point[k] = box.range(k).lo;
  std::vector<std::uint64_t> addr(nrefs);
  std::vector<std::uint64_t> step(nrefs);
  for (size_t r = 0; r < nrefs; ++r) step[r] = plan.refs[r].coef[n - 1];
  while (true) {
    for (size_t r = 0; r < nrefs; ++r) {
      addr[r] = trace_detail::plan_address(plan.refs[r], point);
    }
    for (Int j = 0; j < inner_trip; ++j) {
      for (size_t r = 0; r < nrefs; ++r) {
        touch(r, ordinal, addr[r]);
        addr[r] += step[r];  // one overshoot per row (may wrap; discarded)
      }
      ++ordinal;
    }
    if (n == 1) return ordinal;
    size_t k = n - 2;
    while (true) {
      if (point[k] < box.range(k).hi) {
        ++point[k];
        break;
      }
      if (k == 0) return ordinal;
      point[k] = box.range(k).lo;
      --k;
    }
  }
}

/// Drives the transformed-order scan: u ranges over T * box in
/// lexicographic order, rows come from the polyhedral scanner, and each
/// row's addresses step incrementally in u-space (the plan's coefficients
/// are already composed through T^-1).  Row endpoints are mapped back
/// through `t_inv` and checked against the box -- the box is convex, so
/// endpoint containment covers the whole row.  Ordinals start at
/// `ordinal`; returns the ordinal after the last iteration.
template <class TouchFn>
Int drive_transformed(const AddressPlan& plan, const LoopNest& nest,
                      const IntMat& t_inv, Int ordinal, TouchFn&& touch) {
  const IntBox& box = nest.bounds();
  const size_t n = nest.depth();
  if (n == 0) return ordinal;
  const size_t nrefs = plan.refs.size();
  std::vector<std::uint64_t> addr(nrefs);
  std::vector<std::uint64_t> step(nrefs);
  for (size_t r = 0; r < nrefs; ++r) step[r] = plan.refs[r].coef[n - 1];
  IntVec image(n);  // T^-1 of a row endpoint, reused across rows
  scan_rows(box.image_constraints(t_inv), [&](const IntVec& u, Int lo, Int hi) {
    for (size_t k = 0; k < n; ++k) {  // T^-1 u, with u[n-1] == lo
      Int acc = 0;
      for (size_t c = 0; c < n; ++c) {
        acc = checked_add(acc, checked_mul(t_inv(k, c), u[c]));
      }
      image[k] = acc;
    }
    ensure(box.contains(image), "transformed scan left the iteration space");
    for (size_t k = 0; k < n; ++k) {  // the row's other end, u[n-1] == hi
      image[k] = checked_add(image[k],
                             checked_mul(t_inv(k, n - 1), checked_sub(hi, lo)));
    }
    ensure(box.contains(image), "transformed scan left the iteration space");
    for (size_t r = 0; r < nrefs; ++r) {
      addr[r] = trace_detail::plan_address(plan.refs[r], u);
    }
    for (Int j = lo; j <= hi; ++j) {
      for (size_t r = 0; r < nrefs; ++r) {
        touch(r, ordinal, addr[r]);
        addr[r] += step[r];
      }
      ++ordinal;
    }
  });
  return ordinal;
}

/// The inverse of a scan transform, after checking that it is square, as
/// deep as the nest and unimodular; nullopt (original order) for null.
std::optional<IntMat> scan_inverse(const LoopNest& nest, const IntMat* transform);

/// One nest's exact trace, planned: the scan transform checked and
/// inverted, and the address plan built through the inverse.
struct TracePlan {
  const LoopNest* nest = nullptr;
  std::optional<IntMat> t_inv;  ///< T^-1; empty for original order
  /// T * box when T is a signed permutation: the image is itself a box, so
  /// drive_box scans it over the plan's u-space coefficients in the same
  /// lexicographic order drive_transformed would, with no projection and
  /// no per-row T^-1 arithmetic.
  std::optional<IntBox> u_box;
  AddressPlan addr;
};

/// Plans one nest's trace in original (`transform == nullptr`) or
/// transformed order; see AddressPlan::build for `liveness_order` and the
/// OverflowError.  A signed-permutation transform (the identity passed as
/// a matrix included) gets its u_box, checked once here: T^-1 maps both of
/// its corners into the iteration box.  Every exact trace of a nest starts
/// here.
TracePlan plan_trace(const LoopNest& nest, const IntMat* transform,
                     bool liveness_order);

/// Runs planned traces, in order, as one execution into `arena`: prepares
/// the stores (the plans share one store set -- one plan, or the phases of
/// a program built over shared_stores), scans each plan's nest in its
/// order with ordinals continuing from one nest to the next, and folds the
/// run into the arena's stats.  touch(store, ref, ordinal, addr) runs per
/// access, `ref` indexing the current plan's refs and `store` being its
/// store buffer.  `with_state` prepares the liveness tags.  Returns the
/// iterations visited.
template <class TouchFn>
Int run_trace(const TracePlan* plans, size_t count, TraceArena& arena,
              bool with_state, TouchFn&& touch) {
  require(count > 0, "run_trace: no plans");
  arena.prepare(plans[0].addr, with_state);
  std::vector<TraceArena::StoreBuf*> bufs;
  Int ordinal = 0;
  for (size_t p = 0; p < count; ++p) {
    const TracePlan& plan = plans[p];
    bufs.resize(plan.addr.refs.size());
    for (size_t r = 0; r < bufs.size(); ++r) {
      bufs[r] = &arena.store(plan.addr.refs[r].store);
    }
    auto access = [&](size_t r, Int at, std::uint64_t addr) {
      touch(*bufs[r], r, at, addr);
    };
    if (plan.u_box) {
      ordinal = drive_box(plan.addr, *plan.u_box, ordinal, access);
    } else if (plan.t_inv) {
      ordinal = drive_transformed(plan.addr, *plan.nest, *plan.t_inv, ordinal,
                                  access);
    } else {
      ordinal = drive_box(plan.addr, plan.nest->bounds(), ordinal, access);
    }
  }
  arena.finish_run(plans[0].addr);
  return ordinal;
}

template <class TouchFn>
Int run_trace(const TracePlan& plan, TraceArena& arena, bool with_state,
              TouchFn&& touch) {
  return run_trace(&plan, 1, arena, with_state, touch);
}

}  // namespace lmre
