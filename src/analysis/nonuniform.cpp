#include "analysis/nonuniform.h"

#include <algorithm>

#include "support/error.h"

namespace lmre {

namespace {

// Frobenius-style count of values an affine form a1*i1 + ... + an*in cannot
// reach: the paper's (c1-1)(c2-1) term with c1, c2 the two smallest nonzero
// coefficient magnitudes (0 when fewer than two, or when they share a
// factor > 1 -- the progression case is out of the formula's scope).
Int gap_count(const IntVec& coeffs) {
  std::vector<Int> mags;
  for (size_t k = 0; k < coeffs.size(); ++k) {
    if (coeffs[k] != 0) mags.push_back(checked_abs(coeffs[k]));
  }
  if (mags.size() < 2) return 0;
  std::sort(mags.begin(), mags.end());
  Int c1 = mags[0], c2 = mags[1];
  if (gcd(c1, c2) != 1) return 0;
  return checked_mul(c1 - 1, c2 - 1);
}

}  // namespace

NonUniformBounds nonuniform_bounds(const LoopNest& nest, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  require(!refs.empty(), "nonuniform_bounds: array is not referenced");
  const IntBox& box = nest.bounds();
  const size_t d = nest.array(array).dims();

  NonUniformBounds b;
  if (d != 1) {
    // Product-of-ranges upper bound only.
    Int prod = 1;
    for (size_t dim = 0; dim < d; ++dim) {
      Int lo = 0, hi = 0;
      bool first = true;
      for (const auto& r : refs) {
        auto [rl, rh] = subscript_range(r.access.row(dim), r.offset[dim], box);
        lo = first ? rl : std::min(lo, rl);
        hi = first ? rh : std::max(hi, rh);
        first = false;
      }
      prod = checked_mul(prod, checked_add(checked_sub(hi, lo), 1));
    }
    b.upper = prod;
    return b;
  }

  bool first = true;
  Int max_gap = 0, sum_gap = 0;
  for (const auto& r : refs) {
    auto [lo, hi] = subscript_range(r.access.row(0), r.offset[0], box);
    b.lb_min = first ? lo : std::min(b.lb_min, lo);
    b.ub_max = first ? hi : std::max(b.ub_max, hi);
    first = false;
    Int g = gap_count(r.access.row(0));
    max_gap = std::max(max_gap, g);
    sum_gap = checked_add(sum_gap, g);
  }
  b.upper = checked_add(checked_sub(b.ub_max, b.lb_min), 1);
  b.lower_paper = std::max<Int>(checked_sub(b.upper, max_gap), 0);
  b.lower_conservative = std::max<Int>(checked_sub(b.upper, sum_gap), 0);
  return b;
}

}  // namespace lmre
