#pragma once

// Closed-form symbolic analysis of uniform-dependence nests.
//
// Derives distinct-access counts, per-dependence reuse volumes, and maximum
// window sizes as clamped-product expressions in the symbolic bounds
// N1..Nn, exactly equal to the trace oracle (src/exact) wherever a formula
// is emitted.  The derivation is bound-independent: the same SymbolicResult
// answers every instantiation of the nest's bounds, which is what makes
// O(1) answers for huge problem sizes possible.
//
// Supported regimes (per referenced array, after deduplicating references
// with identical offsets):
//
//   * injective access matrix (trivial integer kernel): distinct counts by
//     inclusion-exclusion over the lattice-reachable offset classes; the
//     window is exact for at most one reusing pair (a single shift d).
//   * one-dimensional kernel, single reference: the paper's Section 3.2
//     kernel form for distinct counts and the exact chain window along the
//     kernel generator.
//
// Anything else -- non-uniformly generated references, kernels of dimension
// >= 2, multi-reference kernel reuse (the Frobenius-like Example 8 shape),
// three-way overlapping windows -- is *declined* with a stable diagnostic
// (LMRE-E017 when the whole nest yields nothing, LMRE-N018 notes for
// per-quantity gaps) instead of risking a wrong formula; callers fall back
// to the trace oracle.
//
// Transform plans: distinct/reuse formulas survive any unimodular
// reordering unchanged (the iteration set is permuted, not altered).
// Windows compose exactly through signed-permutation plans (d' = T d with
// permuted bound variables); for general 2-D unimodular plans the paper's
// eq. (2) estimate is rendered instead, clearly marked as an estimate.

#include <optional>
#include <string>
#include <vector>

#include "diag/diagnostic.h"
#include "ir/nest.h"
#include "support/json_writer.h"
#include "symbolic/expr.h"

namespace lmre {

/// One reuse-carrying dependence of an array: a constant distance and the
/// paper's Section 2.2 reuse volume prod_k max(N_k - |d_k|, 0), i.e. the
/// exact number of iteration pairs (J, J + distance) inside the box.
struct SymbolicDependence {
  IntVec distance;
  SymbolicExpr volume;
};

/// Symbolic formulas for a single referenced array.  Absent optionals are
/// declined quantities; `notes` records why, one entry per gap.
struct SymbolicArrayResult {
  ArrayId id = 0;
  std::string name;
  Int ref_count = 0;  ///< references per iteration (duplicates included)

  std::optional<SymbolicExpr> distinct;  ///< == oracle distinct[id]
  std::optional<SymbolicExpr> reuse;     ///< == oracle reuse[id]
  std::optional<SymbolicWindow> window;  ///< == oracle mws[id]
  std::vector<SymbolicDependence> dependences;
  std::vector<std::string> notes;
};

/// Whole-nest symbolic analysis: per-array formulas, derived totals, and
/// the decline diagnostics.  Totals are emitted only when exact: distinct
/// and reuse totals need every array covered; the window total needs at
/// most one array with a nonzero window (the oracle maximizes the *sum* of
/// live counts over time, which only collapses to per-array form then).
struct SymbolicResult {
  size_t vars = 0;                      ///< nest depth n
  std::vector<std::string> bound_names; ///< "N1".."Nn"
  std::vector<Int> bound_values;        ///< the nest's own trip counts

  std::vector<SymbolicArrayResult> arrays;
  std::optional<SymbolicExpr> distinct_total;
  std::optional<SymbolicExpr> reuse_total;
  std::optional<SymbolicWindow> window_total;

  /// Transform plan the result was composed through (absent: identity).
  std::optional<IntMat> plan;
  /// For general 2-D unimodular plans: the paper's eq. (2) window estimate
  /// as a rendered formula (NOT differential-tested; marked "estimate").
  std::optional<std::string> window_estimate;

  std::vector<Diagnostic> diagnostics;

  /// True when at least one distinct or window formula was derived.
  bool usable() const;
};

/// Exact symbolic maximum window size of a single reuse chain with
/// constant distance d (normalized lex-positive internally): the pointwise
/// minimum over prefix branches
///     min_i ( sum_{t<i} d_{k_t} * prod_{j>k_t} M_j  +  prod_{j>=k_i} M_j )
/// with M_j = max(N_j - |d_j|, 0) and k_1 < k_2 < ... the chain of
/// positive components reached before the remaining suffix turns
/// lex-negative.  The final branch (the full sum) is the paper's Section
/// 4.3 formula; the earlier volume-capped branches make the minimum exact
/// at clamping edges (|d_k| >= N_k and window-wider-than-box cases).
/// `axes[k]` maps loop level k to the bound variable the formulas are
/// written in (identity when omitted) -- this is how signed-permutation
/// plans compose.
SymbolicWindow symbolic_chain_window(const IntVec& d, size_t vars);
SymbolicWindow symbolic_chain_window(const IntVec& d, size_t vars,
                                     const std::vector<size_t>& axes);

/// Symbolic analysis of the nest as written.
SymbolicResult symbolic_analysis(const LoopNest& nest);

/// Symbolic analysis of the nest under unimodular transform plan t.
/// Distinct/reuse formulas are plan-invariant; windows are exact for
/// signed permutations and reported as the eq. (2) estimate for general
/// 2-D plans.  Throws InvalidArgument when t is not unimodular n x n.
SymbolicResult symbolic_analysis_transformed(const LoopNest& nest, const IntMat& t);

/// Writes the JSON document for a SymbolicResult: bounds, per-array
/// formulas (rendered string + interior polynomial terms), totals,
/// evaluated values at the nest's own bounds, and the decline diagnostics.
void symbolic_json(JsonWriter& w, const SymbolicResult& r);

}  // namespace lmre
