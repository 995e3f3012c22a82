#pragma once

// Retained reference implementation of the exact oracle.
//
// This is the original hash-map trace engine: one heap-allocated
// (array, index-vector) key per touched element, first/last-touch stored in
// an unordered_map, liveness reconstructed from full per-element access
// histories.  It is the semantic ground truth the dense-address engine in
// exact/trace_engine.h is differentially tested against
// (property_oracle_test) and the ground truth of the benchmark's analyze
// check.  No production path calls it: the dense engine runs every nest
// lint admits.  Results are identical to the dense engine by construction;
// only speed differs.

#include <vector>

#include "exact/liveness.h"
#include "exact/oracle.h"

namespace lmre {
namespace reference {

/// Hash-map simulate in original lexicographic order.
TraceStats simulate(const LoopNest& nest);

/// Hash-map simulate under a unimodular transformation.
TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t);

/// Hash-map simulate visiting iterations in exactly the given order.
TraceStats simulate_order(const LoopNest& nest, const std::vector<IntVec>& order);

/// Hash-map total-window time series under transformation `t`.
std::vector<Int> window_series(const LoopNest& nest, const IntMat& t);

/// Hash-map lifetime statistics in original order.
LifetimeReport lifetime_report(const LoopNest& nest);

/// Hash-map lifetime statistics in transformed order.
LifetimeReport lifetime_report_transformed(const LoopNest& nest, const IntMat& t);

/// Access-history value-liveness sweep (original or transformed order).
LivenessStats min_memory_liveness(const LoopNest& nest,
                                  const IntMat* transform = nullptr);

}  // namespace reference
}  // namespace lmre
