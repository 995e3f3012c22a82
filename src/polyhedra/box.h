#pragma once

// Rectangular integer boxes (the iteration spaces of untransformed,
// constant-bound loop nests).

#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/mat.h"
#include "polyhedra/constraint.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

/// Per-dimension closed integer range [lo, hi].
struct Range {
  Int lo = 1;
  Int hi = 1;

  /// hi - lo + 1, or 0 for an empty range; throws OverflowError when the
  /// count does not fit in Int (e.g. a range spanning all of Int).
  Int trip_count() const {
    return hi >= lo ? checked_add(checked_sub(hi, lo), 1) : 0;
  }
  bool operator==(const Range& o) const { return lo == o.lo && hi == o.hi; }
};

class IntBox {
 public:
  IntBox() = default;
  explicit IntBox(std::vector<Range> ranges) : ranges_(std::move(ranges)) {}

  /// Box [1,N1] x [1,N2] x ... (the paper's canonical loop bounds).
  static IntBox from_upper_bounds(const std::vector<Int>& n);

  size_t dims() const { return ranges_.size(); }
  const Range& range(size_t i) const {
    require(i < ranges_.size(), "IntBox::range out of range");
    return ranges_[i];
  }
  const std::vector<Range>& ranges() const { return ranges_; }

  /// Total number of integer points (product of trip counts).
  Int volume() const;

  bool contains(const IntVec& p) const;

  /// The box as a constraint system (lo <= x_i <= hi for each i).
  ConstraintSystem to_constraints() const;

  /// The image T * box as constraints over u: the box bounds applied to
  /// i = T^-1 u.  `t_inv` is T^-1 (dims() x dims()).
  ConstraintSystem image_constraints(const IntMat& t_inv) const;

  /// The interval hull of the image T * box: per row of `t`, the range of
  /// u_r = t.row(r) . i over the box.  Exactly the image when T is a
  /// signed permutation; a superset (the sweep of the transformed scan)
  /// otherwise.  Overflow-checked.
  IntBox image_hull(const IntMat& t) const;

  std::string str() const;

 private:
  std::vector<Range> ranges_;
};

std::ostream& operator<<(std::ostream& os, const IntBox& b);

}  // namespace lmre
