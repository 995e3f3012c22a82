#include "ir/nest.h"

#include <set>

#include "support/error.h"

namespace lmre {

Int Array::declared_size() const {
  Int s = 1;
  for (Int e : extents) s = checked_mul(s, e);
  return s;
}

IntVec ArrayRef::index_at(const IntVec& iter) const {
  return (access * iter) + offset;
}

void ArrayRef::linearize(const std::vector<Int>& lo,
                         const std::vector<Int>& stride, IntVec* coef,
                         Int* c0) const {
  const size_t d = access.rows();
  const size_t n = access.cols();
  require(lo.size() == d && stride.size() == d,
          "ArrayRef::linearize: box shape mismatch");
  IntVec c(n);
  for (size_t k = 0; k < n; ++k) {
    Int v = 0;
    for (size_t r = 0; r < d; ++r) {
      v = checked_add(v, checked_mul(stride[r], access(r, k)));
    }
    c[k] = v;
  }
  Int base = 0;
  for (size_t r = 0; r < d; ++r) {
    base = checked_add(base,
                       checked_mul(stride[r], checked_sub(offset[r], lo[r])));
  }
  *coef = std::move(c);
  *c0 = base;
}

std::pair<Int, Int> subscript_range(const IntVec& coeffs, Int constant, const IntBox& box) {
  require(coeffs.size() == box.dims(), "subscript_range: dimension mismatch");
  Int lo = constant, hi = constant;
  for (size_t k = 0; k < coeffs.size(); ++k) {
    Int a = coeffs[k];
    if (a >= 0) {
      lo = checked_add(lo, checked_mul(a, box.range(k).lo));
      hi = checked_add(hi, checked_mul(a, box.range(k).hi));
    } else {
      lo = checked_add(lo, checked_mul(a, box.range(k).hi));
      hi = checked_add(hi, checked_mul(a, box.range(k).lo));
    }
  }
  return {lo, hi};
}

bool ArrayRef::uniformly_generated_with(const ArrayRef& o) const {
  return array == o.array && access == o.access;
}

LoopNest::LoopNest(std::vector<std::string> loop_vars, IntBox bounds,
                   std::vector<Array> arrays, std::vector<Statement> statements)
    : loop_vars_(std::move(loop_vars)),
      bounds_(std::move(bounds)),
      arrays_(std::move(arrays)),
      statements_(std::move(statements)) {
  validate();
  refs_by_array_.resize(arrays_.size());
  for (const auto& s : statements_) {
    for (const auto& r : s.refs) {
      all_refs_.push_back(r);
      refs_by_array_[r.array].push_back(r);
    }
  }
}

const Array& LoopNest::array(ArrayId id) const {
  require(id < arrays_.size(), "LoopNest::array id out of range");
  return arrays_[id];
}

const std::vector<ArrayRef>& LoopNest::refs_to(ArrayId id) const {
  static const std::vector<ArrayRef> kNone;
  return id < refs_by_array_.size() ? refs_by_array_[id] : kNone;
}

Int LoopNest::default_memory() const {
  std::set<ArrayId> used;
  for (const auto& s : statements_)
    for (const auto& r : s.refs) used.insert(r.array);
  Int total = 0;
  for (ArrayId id : used) total = checked_add(total, arrays_[id].declared_size());
  return total;
}

void LoopNest::validate() const {
  const size_t n = depth();
  require(loop_vars_.size() == n, "LoopNest: loop var count != depth");
  for (const auto& s : statements_) {
    for (const auto& r : s.refs) {
      require(r.array < arrays_.size(), "LoopNest: array id out of range");
      const Array& a = arrays_[r.array];
      require(r.access.rows() == a.dims(),
              "LoopNest: access matrix rows != array dims for " + a.name);
      require(r.access.cols() == n,
              "LoopNest: access matrix cols != nest depth for " + a.name);
      require(r.offset.size() == a.dims(),
              "LoopNest: offset length != array dims for " + a.name);
    }
  }
}

}  // namespace lmre
