#pragma once

// Exact integer vectors.
//
// IntVec is the workhorse for iteration vectors, dependence distance vectors,
// reuse vectors and offset vectors.  Arithmetic is overflow-checked.

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/checked.h"
#include "support/error.h"

namespace lmre {

class IntVec {
 public:
  IntVec() = default;
  explicit IntVec(size_t n) : v_(n, 0) {}
  IntVec(std::initializer_list<Int> init) : v_(init) {}
  explicit IntVec(std::vector<Int> v) : v_(std::move(v)) {}

  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  Int& operator[](size_t i) { return v_[i]; }
  Int operator[](size_t i) const { return v_[i]; }

  /// Bounds-checked access (throws InvalidArgument out of range).
  Int at(size_t i) const {
    require(i < v_.size(), "IntVec index out of range");
    return v_[i];
  }

  const std::vector<Int>& data() const { return v_; }

  IntVec operator+(const IntVec& o) const;
  IntVec operator-(const IntVec& o) const;
  IntVec operator-() const;
  IntVec operator*(Int s) const;

  bool operator==(const IntVec& o) const { return v_ == o.v_; }
  bool operator!=(const IntVec& o) const { return v_ != o.v_; }

  /// Dot product (overflow-checked).
  Int dot(const IntVec& o) const;

  bool is_zero() const;

  /// Index (0-based) of the first nonzero entry, or size() if all zero.
  /// The paper's "level" of a dependence/reuse vector is this index + 1.
  size_t first_nonzero() const;

  /// 1-based level of the vector: index of first nonzero entry, or 0 if
  /// the vector is zero (a loop-independent dependence).
  int level() const;

  /// True when the first nonzero entry is positive (lexicographically
  /// positive); false for the zero vector.
  bool lex_positive() const;

  /// True when this vector is lexicographically smaller than `o`.
  bool lex_less(const IntVec& o) const;

  /// gcd of all entries (0 for the zero vector).
  Int content() const;

  /// Divides every entry by the content; zero vector unchanged.  The result
  /// is the primitive vector in the same direction.
  IntVec primitive() const;

  /// "(a, b, c)" rendering.
  std::string str() const;

 private:
  std::vector<Int> v_;
};

std::ostream& operator<<(std::ostream& os, const IntVec& v);

}  // namespace lmre
