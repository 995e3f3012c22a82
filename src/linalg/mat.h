#pragma once

// Exact integer matrices.
//
// IntMat represents access (data reference) matrices, unimodular
// transformation matrices, and the coefficient matrices of linear systems.
// Storage is dense row-major; all arithmetic is overflow-checked.  Up to
// IntMat::kInline entries (a 4 x 4 transform) live inline, with no heap
// allocation; larger matrices spill to the heap.

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/vec.h"
#include "support/checked.h"

namespace lmre {

class IntMat {
 public:
  /// Entries kept inline; larger matrices allocate.
  static constexpr size_t kInline = 16;

  IntMat() : rows_(0), cols_(0) {}
  IntMat(size_t rows, size_t cols) : rows_(rows), cols_(cols), v_(rows * cols) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  IntMat(std::initializer_list<std::initializer_list<Int>> init);

  static IntMat identity(size_t n);

  /// Matrix whose rows are the given vectors (all the same length).
  static IntMat from_rows(const std::vector<IntVec>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  Int& operator()(size_t r, size_t c) { return v_.data()[r * cols_ + c]; }
  Int operator()(size_t r, size_t c) const { return v_.data()[r * cols_ + c]; }

  /// Bounds-checked element access.
  Int at(size_t r, size_t c) const;

  IntVec row(size_t r) const;
  IntVec col(size_t c) const;
  void set_row(size_t r, const IntVec& v);

  IntMat operator+(const IntMat& o) const;
  IntMat operator-(const IntMat& o) const;
  IntMat operator*(const IntMat& o) const;
  IntVec operator*(const IntVec& x) const;
  IntMat operator*(Int s) const;
  bool operator==(const IntMat& o) const;
  bool operator!=(const IntMat& o) const { return !(*this == o); }

  IntMat transposed() const;

  /// Removes row r and column c (for minors/adjugates).
  IntMat minor_matrix(size_t r, size_t c) const;

  /// Exact determinant via Bareiss fraction-free elimination. Square only.
  Int determinant() const;

  /// Rank over the rationals (fraction-free elimination).
  size_t rank() const;

  /// True when square with determinant +1 or -1.
  bool is_unimodular() const;

  /// Exact inverse of a matrix with determinant +/-1.  Throws
  /// InvalidArgument when the matrix is not unimodular (the general inverse
  /// is not integral).
  IntMat inverse_unimodular() const;

  /// Adjugate (transpose of cofactor matrix): A * adj(A) == det(A) * I.
  IntMat adjugate() const;

  /// Multi-line "[a b; c d]"-style rendering.
  std::string str() const;

 private:
  size_t rows_, cols_;
  InlineInts<kInline> v_;
};

std::ostream& operator<<(std::ostream& os, const IntMat& m);

/// True when t is a signed permutation matrix (exactly one +-1 per row and
/// column): loop permutation plus per-loop reversal.  Such a T maps a box
/// onto a box, which is what lets window formulas compose through it and
/// the trace engine scan T * box without a polyhedral projection.
bool is_signed_permutation(const IntMat& t);

}  // namespace lmre
