#pragma once

// The exact oracle: ground truth by enumeration.
//
// This plays the role the paper assigns to the "more expensive but exact"
// techniques of Clauss and Pugh: execute the nest (in original or
// transformed order), record every touched element, and compute the exact
// number of distinct accesses and the exact maximum window size (MWS).
//
// The reference window W_X(I) is the set of elements of X referenced at some
// iteration J1 <= I that are also referenced at some J2 > I (Section 2.3);
// MWS is max_I |W_X(I)|, and for multiple arrays max_I of the sum.

#include <functional>
#include <map>
#include <vector>

#include "ir/general.h"
#include "ir/nest.h"
#include "linalg/mat.h"

namespace lmre {

class TraceArena;  // exact/trace_engine.h: reusable dense-engine storage

/// Visits every iteration of the nest in the chosen execution order
/// (`transform == nullptr` means original lexicographic order), calling
/// body(ordinal, iteration).  The building block under every simulation in
/// this module; exposed so other granularities (memory lines, tiles) can
/// reuse the exact ordering.
void visit_iterations(const LoopNest& nest, const IntMat* transform,
                      const std::function<void(Int, const IntVec&)>& body);

/// Exact per-nest measurements from one simulated execution.
struct TraceStats {
  Int iterations = 0;      ///< number of iterations executed
  Int total_accesses = 0;  ///< iterations x refs (per executed statement)

  Int distinct_total = 0;                 ///< distinct (array, element) pairs
  std::map<ArrayId, Int> distinct;        ///< per array
  Int reuse_total = 0;                    ///< total_accesses - distinct_total
  std::map<ArrayId, Int> reuse;           ///< per array

  Int mws_total = 0;                      ///< max_I sum_X |W_X(I)|
  std::map<ArrayId, Int> mws;             ///< per array: max_I |W_X(I)|
};

/// Executes the nest in original lexicographic order.
TraceStats simulate(const LoopNest& nest);

/// simulate reusing the caller's TraceArena: repeated runs against the same
/// nest (candidate scoring, verify loops) touch one allocation footprint
/// instead of rebuilding storage per call.  Results are identical to the
/// arena-free overload.  The `int` is unused: it is kept only so the
/// mangled name stays the one perfbench's traced replay wraps at link time.
TraceStats simulate(const LoopNest& nest, int unused, TraceArena& arena);

/// Executes the nest under the unimodular transformation `t`: iterations are
/// visited in lexicographic order of u = t * i (the transformed loop), each
/// mapped back through t^-1 to evaluate the body's references.
TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t);

/// simulate_transformed reusing the caller's TraceArena (see above).
TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t,
                                TraceArena& arena);

/// Executes a general (non-rectangular) nest in lexicographic order of its
/// constraint space.
TraceStats simulate_general(const GeneralNest& nest);

/// Executes the nest visiting iterations in exactly the given order (each
/// entry an original-space iteration vector).  The caller is responsible for
/// the order being a permutation of the iteration space; used by the tiling
/// machinery to model blocked execution.
TraceStats simulate_order(const LoopNest& nest, const std::vector<IntVec>& order);

/// Total-window-size time series |sum_X W_X| per iteration ordinal, in the
/// given execution order (identity transform = original order).  Useful for
/// plotting/inspecting the dynamic behaviour of the window.
std::vector<Int> window_series(const LoopNest& nest, const IntMat& t);

/// window_series reusing the caller's TraceArena.
std::vector<Int> window_series(const LoopNest& nest, const IntMat& t,
                               TraceArena& arena);

/// Exact per-element lifetime statistics.  The lifetime of an element is
/// the number of iterations between its first and last access (0 when it is
/// touched in a single iteration only) -- Section 1's "time between the
/// first and last accesses to a given array location".
struct LifetimeStats {
  Int elements = 0;       ///< distinct elements
  Int live_elements = 0;  ///< elements with lifetime > 0
  Int max_lifetime = 0;
  Int total_lifetime = 0;  ///< sum over elements

  double mean_lifetime() const {
    return elements == 0 ? 0.0
                         : static_cast<double>(total_lifetime) /
                               static_cast<double>(elements);
  }
};

struct LifetimeReport {
  std::map<ArrayId, LifetimeStats> per_array;
  LifetimeStats total;
};

/// Measures lifetimes in original order.
LifetimeReport lifetime_report(const LoopNest& nest);

/// lifetime_report reusing the caller's TraceArena.
LifetimeReport lifetime_report(const LoopNest& nest, TraceArena& arena);

/// Measures lifetimes in transformed execution order.
LifetimeReport lifetime_report_transformed(const LoopNest& nest, const IntMat& t);

/// lifetime_report_transformed reusing the caller's TraceArena.
LifetimeReport lifetime_report_transformed(const LoopNest& nest,
                                           const IntMat& t, TraceArena& arena);

}  // namespace lmre
