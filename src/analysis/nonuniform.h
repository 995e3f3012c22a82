#pragma once

// Bounds on distinct accesses for NON-uniformly generated references
// (Section 3.2, Example 6).
//
// When references to an array use different access matrices there is no
// constant dependence distance; the paper instead bounds the number of
// distinct elements from the ranges of the subscript functions:
//
//   upper = UB_max - LB_min + 1   (all touched elements lie in that range)
//   lower = upper - gap estimate  (Frobenius-style unreachable values)
//
// Example 6 (refs 3i+7j-10 and 4i-3j+60 over [1,20]^2) gives UB 191,
// paper LB 179, actual 181.

#include "ir/nest.h"

namespace lmre {

struct NonUniformBounds {
  Int lb_min = 0;  ///< smallest subscript value over all references
  Int ub_max = 0;  ///< largest subscript value over all references
  Int upper = 0;   ///< ub_max - lb_min + 1 (sound upper bound)

  /// The paper's lower bound: upper minus the largest single-reference gap
  /// count (c1-1)(c2-1) over references (reproduces Example 6's 179).
  Int lower_paper = 0;

  /// A more conservative lower bound: upper minus the SUM of per-reference
  /// gap counts (173 on Example 6).  Use this when a guaranteed-safe bound
  /// matters more than matching the paper's number.
  Int lower_conservative = 0;
};

/// Computes the bounds for a 1-dimensional array accessed by arbitrary
/// affine references.  Arrays of higher dimension get the product-of-ranges
/// upper bound and zero lower bounds (outside the paper's scope).
NonUniformBounds nonuniform_bounds(const LoopNest& nest, ArrayId array);

}  // namespace lmre
