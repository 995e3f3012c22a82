#include "linalg/mat.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/error.h"

namespace lmre {

IntMat::IntMat(std::initializer_list<std::initializer_list<Int>> init)
    : rows_(init.size()),
      cols_(rows_ ? init.begin()->size() : 0),
      v_(rows_ * cols_) {
  Int* out = v_.data();
  for (const auto& row : init) {
    require(row.size() == cols_, "IntMat rows of unequal length");
    out = std::copy(row.begin(), row.end(), out);
  }
}

IntMat IntMat::identity(size_t n) {
  IntMat m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1;
  return m;
}

IntMat IntMat::from_rows(const std::vector<IntVec>& rows) {
  require(!rows.empty(), "IntMat::from_rows with no rows");
  IntMat m(rows.size(), rows.front().size());
  for (size_t r = 0; r < rows.size(); ++r) m.set_row(r, rows[r]);
  return m;
}

Int IntMat::at(size_t r, size_t c) const {
  require(r < rows_ && c < cols_, "IntMat index out of range");
  return (*this)(r, c);
}

IntVec IntMat::row(size_t r) const {
  require(r < rows_, "IntMat row out of range");
  IntVec v(cols_);
  for (size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

IntVec IntMat::col(size_t c) const {
  require(c < cols_, "IntMat col out of range");
  IntVec v(rows_);
  for (size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void IntMat::set_row(size_t r, const IntVec& v) {
  require(r < rows_ && v.size() == cols_, "IntMat::set_row mismatch");
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

IntMat IntMat::operator+(const IntMat& o) const {
  require(rows_ == o.rows_ && cols_ == o.cols_, "IntMat size mismatch in +");
  IntMat m(rows_, cols_);
  const Int *a = v_.data(), *b = o.v_.data();
  Int* out = m.v_.data();
  for (size_t i = 0; i < v_.size(); ++i) out[i] = checked_add(a[i], b[i]);
  return m;
}

IntMat IntMat::operator-(const IntMat& o) const {
  require(rows_ == o.rows_ && cols_ == o.cols_, "IntMat size mismatch in -");
  IntMat m(rows_, cols_);
  const Int *a = v_.data(), *b = o.v_.data();
  Int* out = m.v_.data();
  for (size_t i = 0; i < v_.size(); ++i) out[i] = checked_sub(a[i], b[i]);
  return m;
}

IntMat IntMat::operator*(const IntMat& o) const {
  require(cols_ == o.rows_, "IntMat size mismatch in *");
  IntMat m(rows_, o.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < o.cols_; ++c) {
      Int acc = 0;
      for (size_t k = 0; k < cols_; ++k)
        acc = checked_add(acc, checked_mul((*this)(r, k), o(k, c)));
      m(r, c) = acc;
    }
  }
  return m;
}

IntVec IntMat::operator*(const IntVec& x) const {
  require(cols_ == x.size(), "IntMat*IntVec size mismatch");
  IntVec y(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    Int acc = 0;
    for (size_t c = 0; c < cols_; ++c) acc = checked_add(acc, checked_mul((*this)(r, c), x[c]));
    y[r] = acc;
  }
  return y;
}

IntMat IntMat::operator*(Int s) const {
  IntMat m(rows_, cols_);
  const Int* a = v_.data();
  Int* out = m.v_.data();
  for (size_t i = 0; i < v_.size(); ++i) out[i] = checked_mul(a[i], s);
  return m;
}

bool IntMat::operator==(const IntMat& o) const {
  return rows_ == o.rows_ && cols_ == o.cols_ && v_ == o.v_;
}

IntMat IntMat::transposed() const {
  IntMat m(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) m(c, r) = (*this)(r, c);
  return m;
}

IntMat IntMat::minor_matrix(size_t r, size_t c) const {
  require(r < rows_ && c < cols_, "IntMat::minor_matrix out of range");
  IntMat m(rows_ - 1, cols_ - 1);
  for (size_t i = 0, mi = 0; i < rows_; ++i) {
    if (i == r) continue;
    for (size_t j = 0, mj = 0; j < cols_; ++j) {
      if (j == c) continue;
      m(mi, mj) = (*this)(i, j);
      ++mj;
    }
    ++mi;
  }
  return m;
}

namespace {

// Bareiss fraction-free elimination.  Returns the determinant when `m` is
// square; otherwise leaves the echelon structure in `a` and reports the rank
// through `rank_out`.  All divisions are exact by Bareiss's theorem.
Int bareiss(IntMat a, size_t* rank_out) {
  const size_t n = a.rows(), m = a.cols();
  Int prev = 1;
  Int det_sign = 1;
  size_t rank = 0;
  for (size_t col = 0; col < m && rank < n; ++col) {
    // Find a pivot in this column at/below row `rank`.
    size_t piv = rank;
    while (piv < n && a(piv, col) == 0) ++piv;
    if (piv == n) continue;  // free column
    if (piv != rank) {
      for (size_t c = 0; c < m; ++c) std::swap(a(piv, c), a(rank, c));
      det_sign = -det_sign;
    }
    for (size_t r = rank + 1; r < n; ++r) {
      for (size_t c = col + 1; c < m; ++c) {
        Int num = checked_sub(checked_mul(a(rank, col), a(r, c)),
                              checked_mul(a(r, col), a(rank, c)));
        ensure(prev != 0 && num % prev == 0, "Bareiss division not exact");
        a(r, c) = num / prev;
      }
      a(r, col) = 0;
    }
    prev = a(rank, col);
    ++rank;
  }
  if (rank_out) *rank_out = rank;
  if (n == m && rank == n) return checked_mul(det_sign, prev);
  return 0;
}

}  // namespace

Int IntMat::determinant() const {
  require(rows_ == cols_, "determinant of non-square matrix");
  if (rows_ == 0) return 1;
  return bareiss(*this, nullptr);
}

size_t IntMat::rank() const {
  size_t r = 0;
  if (rows_ == 0 || cols_ == 0) return 0;
  bareiss(*this, &r);
  return r;
}

bool IntMat::is_unimodular() const {
  if (rows_ != cols_) return false;
  Int d = determinant();
  return d == 1 || d == -1;
}

IntMat IntMat::adjugate() const {
  require(rows_ == cols_, "adjugate of non-square matrix");
  const size_t n = rows_;
  if (n == 0) return IntMat(0, 0);
  if (n == 1) return identity(1);
  IntMat adj(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      Int cof = minor_matrix(r, c).determinant();
      if ((r + c) % 2 == 1) cof = checked_neg(cof);
      adj(c, r) = cof;  // transpose of cofactors
    }
  }
  return adj;
}

IntMat IntMat::inverse_unimodular() const {
  require(is_unimodular(), "inverse_unimodular: matrix is not unimodular");
  Int d = determinant();
  IntMat adj = adjugate();
  return d == 1 ? adj : adj * Int{-1};
}

std::string IntMat::str() const {
  std::ostringstream os;
  os << '[';
  for (size_t r = 0; r < rows_; ++r) {
    if (r) os << "; ";
    for (size_t c = 0; c < cols_; ++c) {
      if (c) os << ' ';
      os << (*this)(r, c);
    }
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntMat& m) { return os << m.str(); }

bool is_signed_permutation(const IntMat& t) {
  if (t.rows() != t.cols()) return false;
  const size_t n = t.rows();
  std::vector<int> col_used(n, 0);
  for (size_t r = 0; r < n; ++r) {
    int nonzero = 0;
    for (size_t c = 0; c < n; ++c) {
      Int v = t(r, c);
      if (v == 0) continue;
      if (v != 1 && v != -1) return false;
      ++nonzero;
      ++col_used[c];
    }
    if (nonzero != 1) return false;
  }
  for (size_t c = 0; c < n; ++c) {
    if (col_used[c] != 1) return false;
  }
  return true;
}

}  // namespace lmre
