#include "polyhedra/box.h"

#include <ostream>
#include <sstream>

namespace lmre {

IntBox IntBox::from_upper_bounds(const std::vector<Int>& n) {
  std::vector<Range> ranges;
  ranges.reserve(n.size());
  for (Int hi : n) ranges.push_back(Range{1, hi});
  return IntBox(std::move(ranges));
}

Int IntBox::volume() const {
  Int v = 1;
  for (const auto& r : ranges_) v = checked_mul(v, r.trip_count());
  return v;
}

bool IntBox::contains(const IntVec& p) const {
  if (p.size() != ranges_.size()) return false;
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (p[i] < ranges_[i].lo || p[i] > ranges_[i].hi) return false;
  }
  return true;
}

ConstraintSystem IntBox::to_constraints() const {
  ConstraintSystem sys(dims());
  for (size_t i = 0; i < dims(); ++i) {
    sys.add_range(AffineExpr::variable(dims(), i), ranges_[i].lo, ranges_[i].hi);
  }
  return sys;
}

ConstraintSystem IntBox::image_constraints(const IntMat& t_inv) const {
  ConstraintSystem sys(dims());
  for (size_t i = 0; i < dims(); ++i) {
    sys.add_range(AffineExpr(t_inv.row(i), 0), ranges_[i].lo, ranges_[i].hi);
  }
  return sys;
}

IntBox IntBox::image_hull(const IntMat& t) const {
  const size_t n = dims();
  std::vector<Range> ranges(n);
  for (size_t r = 0; r < n; ++r) {
    Int lo = 0, hi = 0;
    for (size_t c = 0; c < n; ++c) {
      const Int a = t(r, c);
      const Range& x = ranges_[c];
      lo = checked_add(lo, checked_mul(a, a >= 0 ? x.lo : x.hi));
      hi = checked_add(hi, checked_mul(a, a >= 0 ? x.hi : x.lo));
    }
    ranges[r] = Range{lo, hi};
  }
  return IntBox(std::move(ranges));
}

std::string IntBox::str() const {
  std::ostringstream os;
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (i) os << " x ";
    os << '[' << ranges_[i].lo << ',' << ranges_[i].hi << ']';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntBox& b) { return os << b.str(); }

}  // namespace lmre
