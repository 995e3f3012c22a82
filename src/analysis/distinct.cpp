#include "analysis/distinct.h"

#include "analysis/nonuniform.h"
#include "analysis/reuse.h"
#include "ir/nest.h"
#include "linalg/diophantine.h"
#include "linalg/kernel.h"
#include "support/error.h"

namespace lmre {

std::string to_string(DistinctMethod m) {
  switch (m) {
    case DistinctMethod::kFullDim: return "full-dim (Sec 3.1)";
    case DistinctMethod::kKernelSingleRef: return "kernel single-ref (Sec 3.2)";
    case DistinctMethod::kKernelMultiRef: return "kernel multi-ref (extension)";
    case DistinctMethod::kNonUniform: return "non-uniform bounds (Sec 3.2)";
  }
  return "?";
}

namespace {

// Best (largest) anchor reuse over all anchor choices.  An anchor's reuse
// is the sum of overlap volumes of every other reference against it: the
// paper's "r-1 dependences due to all the other references" (Sec 3.1).  The
// paper picks "a node which is a sink to the dependence vectors from each
// of the remaining r-1 nodes" -- maximizing makes the distinct estimate
// tightest and agrees with the paper's symmetric examples.  The access
// matrix is injective, so each pair has at most one distance, d for one
// orientation and -d for the other, and both overlap by the same volume:
// one solve per unordered pair.
Int best_anchor_reuse(const std::vector<ArrayRef>& refs, const IntBox& box) {
  const size_t r = refs.size();
  const IntMat& acc = refs.front().access;
  // volume[s][i] == volume[i][s]: overlap of references i and s.
  std::vector<std::vector<Int>> volume(r, std::vector<Int>(r, 0));
  for (size_t s = 0; s < r; ++s) {
    for (size_t i = s + 1; i < r; ++i) {
      auto sol = solve_diophantine(acc, refs[i].offset - refs[s].offset);
      if (!sol) continue;  // images never overlap
      ensure(sol->kernel.empty(), "best_anchor_reuse: expected injective access");
      volume[s][i] = volume[i][s] = reuse_volume(sol->particular, box);
    }
  }
  Int best = 0;
  for (size_t s = 0; s < r; ++s) {
    Int total = 0;
    for (size_t i = 0; i < r; ++i) total = checked_add(total, volume[s][i]);
    best = std::max(best, total);
  }
  return best;
}

}  // namespace

DistinctEstimate estimate_distinct(const LoopNest& nest, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  require(!refs.empty(), "estimate_distinct: array is not referenced");
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) {
      throw UnsupportedError(
          "estimate_distinct: references to '" + nest.array(array).name +
          "' are not uniformly generated; use nonuniform_bounds instead");
    }
  }

  const IntBox& box = nest.bounds();
  const Int volume = box.volume();
  const Int r = static_cast<Int>(refs.size());
  const IntMat& acc = refs[0].access;
  std::vector<IntVec> kernel = integer_kernel_basis(acc);

  DistinctEstimate est;
  if (kernel.empty()) {
    // Injective access: one reference touches volume distinct elements.
    est.method = DistinctMethod::kFullDim;
    if (r == 1) {
      est.reuse = 0;
      est.distinct = volume;
      est.exact_claimed = true;
      return est;
    }
    est.reuse = best_anchor_reuse(refs, box);
    est.distinct = checked_sub(checked_mul(r, volume), est.reuse);
    est.exact_claimed = (r == 2);
    return est;
  }

  // Reuse along the kernel of the access matrix (Section 3.2).
  Int kernel_reuse_one_ref = 0;
  for (const IntVec& g : kernel) {
    kernel_reuse_one_ref =
        checked_add(kernel_reuse_one_ref, reuse_volume(g.primitive(), box));
  }

  // Product of per-subscript value counts: an upper bound on the image size
  // (exact when the subscript rows have disjoint loop support, e.g. plain
  // A[i][j] in a deeper nest).
  auto row_value_count = [&](const IntVec& row, Int off) {
    auto [lo, hi] = subscript_range(row, off, box);
    Int g = row.content();
    if (g == 0) return Int{1};
    return checked_add(checked_sub(hi, lo) / g, 1);
  };
  Int image_cap = 1;
  for (size_t dim = 0; dim < acc.rows(); ++dim) {
    image_cap = checked_mul(image_cap, row_value_count(acc.row(dim), refs[0].offset[dim]));
  }

  if (r == 1) {
    est.method = DistinctMethod::kKernelSingleRef;
    if (kernel.size() == 1) {
      // The paper's Section 3.2 formula; claimed exact.
      est.reuse = kernel_reuse_one_ref;
      est.distinct = std::max<Int>(checked_sub(volume, est.reuse), 0);
      est.exact_claimed = true;
    } else {
      // Kernel dimension >= 2: reuse volumes along separate generators
      // overlap, so subtracting their sum is meaningless.  Use the image
      // cap instead (exact for disjoint-support subscript rows).
      est.distinct = std::min(volume, image_cap);
      est.reuse = checked_sub(volume, est.distinct);
      est.exact_claimed = false;
    }
    return est;
  }

  // Multiple references with kernel reuse: the paper omits this case
  // ("for lack of space").  Our extension: all references share one image
  // shape (uniform generation), so the union is the anchor's image plus the
  // boundary layer each shifted copy adds.  Modelling the image as a box
  // with the subscript-range extents E_k, a shift D adds
  //   prod E_k - prod max(E_k - |D_k|, 0)
  // elements (exact for Example 8: 90 + 4 = 94).
  est.method = DistinctMethod::kKernelMultiRef;
  Int single = kernel.size() == 1
                   ? std::max<Int>(checked_sub(volume, kernel_reuse_one_ref), 0)
                   : std::min(volume, image_cap);
  const size_t d = refs[0].access.rows();
  std::vector<Int> extents(d);
  Int extent_prod = 1;
  for (size_t dim = 0; dim < d; ++dim) {
    auto [lo, hi] = subscript_range(refs[0].access.row(dim), refs[0].offset[dim], box);
    extents[dim] = checked_add(checked_sub(hi, lo), 1);
    extent_prod = checked_mul(extent_prod, extents[dim]);
  }
  Int extra = 0;
  for (size_t i = 1; i < refs.size(); ++i) {
    IntVec shift = refs[i].offset - refs[0].offset;
    Int overlap = 1;
    for (size_t dim = 0; dim < d; ++dim) {
      overlap = checked_mul(
          overlap, std::max<Int>(checked_sub(extents[dim], checked_abs(shift[dim])), 0));
    }
    extra = checked_add(extra, checked_sub(extent_prod, overlap));
  }
  est.distinct = checked_add(single, extra);
  est.reuse = checked_sub(checked_mul(r, volume), est.distinct);
  est.exact_claimed = false;
  return est;
}

Int distinct_exact_inclusion_exclusion(const LoopNest& nest, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  require(!refs.empty(), "distinct_exact_ie: array is not referenced");
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) {
      throw UnsupportedError("distinct_exact_ie: references not uniformly generated");
    }
  }
  const IntMat& acc = refs[0].access;
  if (!integer_kernel_basis(acc).empty()) {
    throw UnsupportedError("distinct_exact_ie: access matrix must be injective");
  }
  const size_t r = refs.size();
  require(r <= 16, "distinct_exact_ie: too many references for 2^r expansion");
  const IntBox& box = nest.bounds();
  const size_t n = box.dims();

  // Pairwise iteration-space shifts: image_i == image_j shifted by s where
  // A s == offset_j - offset_i.  Each subset is anchored at its lowest
  // member; a member with no integral shift to the anchor makes the
  // subset's intersection empty ONLY together with that anchor, so the
  // anchoring must be per subset (not globally at ref 0).
  std::vector<std::vector<std::optional<IntVec>>> shift(
      r, std::vector<std::optional<IntVec>>(r));
  for (size_t j = 0; j < r; ++j) {
    shift[j][j] = IntVec(n);
    for (size_t i = j + 1; i < r; ++i) {
      auto sol = solve_diophantine(acc, refs[j].offset - refs[i].offset);
      if (sol) {
        shift[j][i] = sol->particular;
        shift[i][j] = -sol->particular;
      }
    }
  }

  Int total = 0;
  for (unsigned mask = 1; mask < (1u << r); ++mask) {
    size_t anchor = static_cast<size_t>(__builtin_ctz(mask));
    // Intersection of { box + shift[anchor][i] : i in mask }.
    bool empty = false;
    std::vector<Int> lo(n), hi(n);
    bool first = true;
    for (size_t i = 0; i < r && !empty; ++i) {
      if (!((mask >> i) & 1)) continue;
      if (!shift[anchor][i]) {
        empty = true;
        break;
      }
      for (size_t k = 0; k < n; ++k) {
        Int l = checked_add(box.range(k).lo, (*shift[anchor][i])[k]);
        Int h = checked_add(box.range(k).hi, (*shift[anchor][i])[k]);
        if (first) {
          lo[k] = l;
          hi[k] = h;
        } else {
          lo[k] = std::max(lo[k], l);
          hi[k] = std::min(hi[k], h);
        }
      }
      first = false;
    }
    if (empty) continue;
    Int vol = 1;
    for (size_t k = 0; k < n && vol > 0; ++k) {
      vol = hi[k] >= lo[k] ? checked_mul(vol, hi[k] - lo[k] + 1) : 0;
    }
    if (vol == 0) continue;
    int bits = __builtin_popcount(mask);
    total = (bits % 2 == 1) ? checked_add(total, vol) : checked_sub(total, vol);
  }
  return total;
}

Int estimate_distinct_total(const LoopNest& nest) {
  Int total = 0;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    const std::vector<ArrayRef>& refs = nest.refs_to(id);
    if (refs.empty()) continue;
    bool uniform = true;
    for (size_t i = 1; i < refs.size(); ++i) {
      if (!refs[i].uniformly_generated_with(refs[0])) uniform = false;
    }
    if (uniform) {
      total = checked_add(total, estimate_distinct(nest, id).distinct);
    } else {
      total = checked_add(total, nonuniform_bounds(nest, id).upper);
    }
  }
  return total;
}

}  // namespace lmre
