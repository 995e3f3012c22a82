#pragma once

// Maximum Window Size (MWS) formulas (Sections 2.3, 4.1, 4.3).
//
// The reference window W_X(I) is the set of elements of X touched at or
// before I that will be touched again after I; MWS is its peak size over the
// execution -- the minimum local memory that captures all reuse of X.
//
// Two closed forms from the paper:
//  * eq. (2): 2-deep nests, uniformly generated references X[a1*i + a2*j + c]
//    under a unimodular transform with first row (a, b):
//        MWS ~= (maxspan + 1) * |a2*a - a1*b|,
//        maxspan = min((N1-1)/|b|, (N2-1)/|a|)   (rational, per Sec 4.2)
//  * Section 4.3: depth-3 nests with a 1-dimensional reuse (null-space)
//    vector (d1,d2,d3), generalized here to depth n:
//        MWS = 1 + sum_k max(d_k,0) * prod_{j>k} (N_j - |d_j|).

#include <optional>

#include "ir/nest.h"
#include "linalg/rational.h"

namespace lmre {

struct DependenceInfo;  // dependence/dependence.h: a nest's distance vectors

/// Rational maxspan of the inner loop after transforming a 2-deep nest with
/// a transform whose first row is (a, b) (identity order: a=1, b=0).
/// Requires (a, b) nonzero and primitive.
Rational maxspan2(const IntBox& box, Int a, Int b);

/// eq. (1): MWS = maxspan * (a2*a - a1*b) / det(T) -- the unsimplified form
/// the paper states before deriving eq. (2).  `span` is the maximum inner
/// trip count (e.g. TransformedNest::maxspan_inner() or maxspan2).
Rational mws2_eq1(const IntVec& alpha, const Rational& span, const IntMat& t);

/// eq. (2): MWS estimate for uniformly generated references with subscript
/// coefficients alpha = (a1, a2) on a 1-d array, under first row (a, b).
/// Returns 1 when |a2*a - a1*b| == 0 (all accesses to an element become
/// consecutive inner iterations -- Example 7's optimal transform).
Rational mws2_estimate(const IntVec& alpha, const IntBox& box, Int a, Int b);

/// Depth-n reuse-vector formula; `v` is normalized to be lexicographically
/// positive internally.  `with_plus_one` follows the formula block of
/// Section 4.3 (the paper's Example 10 prints the value without the +1).
Int mws_from_reuse_vector(const IntVec& v, const IntBox& box, bool with_plus_one = true);

/// The verbatim 3-level formula of Section 4.3 (requires depth 3).
Int mws3_paper(const IntVec& v, const IntBox& box);

/// Per-array MWS estimate for the untransformed nest.  nullopt when no
/// formula applies (non-uniformly generated references).
std::optional<Int> estimate_mws_array(const LoopNest& nest, ArrayId array);

/// estimate_mws_array sharing one dependence analysis across the arrays of
/// a nest: `deps` holds analyze_dependences(nest), filled in by the first
/// call whose formula reads it (eq. (2) and non-uniform arrays never do).
std::optional<Int> estimate_mws_array(const LoopNest& nest,
                                      std::optional<DependenceInfo>& deps, ArrayId array);

/// Sum of per-array estimates (an upper bound on the combined window's
/// peak).  Arrays with no applicable formula contribute their estimated
/// distinct count.  Returns nullopt if nothing could be estimated.
std::optional<Int> estimate_mws_total(const LoopNest& nest);

}  // namespace lmre
