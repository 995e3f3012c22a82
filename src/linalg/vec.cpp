#include "linalg/vec.h"

#include <ostream>
#include <sstream>

#include "support/error.h"

namespace lmre {

IntVec IntVec::operator+(const IntVec& o) const {
  require(size() == o.size(), "IntVec size mismatch in +");
  IntVec r(size());
  for (size_t i = 0; i < size(); ++i) r[i] = checked_add(v_.data()[i], o[i]);
  return r;
}

IntVec IntVec::operator-(const IntVec& o) const {
  require(size() == o.size(), "IntVec size mismatch in -");
  IntVec r(size());
  for (size_t i = 0; i < size(); ++i) r[i] = checked_sub(v_.data()[i], o[i]);
  return r;
}

IntVec IntVec::operator-() const {
  IntVec r(size());
  for (size_t i = 0; i < size(); ++i) r[i] = checked_neg(v_.data()[i]);
  return r;
}

IntVec IntVec::operator*(Int s) const {
  IntVec r(size());
  for (size_t i = 0; i < size(); ++i) r[i] = checked_mul(v_.data()[i], s);
  return r;
}

Int IntVec::dot(const IntVec& o) const {
  require(size() == o.size(), "IntVec size mismatch in dot");
  Int acc = 0;
  for (size_t i = 0; i < size(); ++i) acc = checked_add(acc, checked_mul(v_.data()[i], o[i]));
  return acc;
}

bool IntVec::is_zero() const {
  for (Int x : *this)
    if (x != 0) return false;
  return true;
}

size_t IntVec::first_nonzero() const {
  for (size_t i = 0; i < size(); ++i)
    if (v_.data()[i] != 0) return i;
  return size();
}

int IntVec::level() const {
  size_t i = first_nonzero();
  return i == size() ? 0 : static_cast<int>(i) + 1;
}

bool IntVec::lex_positive() const {
  size_t i = first_nonzero();
  return i < size() && v_.data()[i] > 0;
}

bool IntVec::lex_less(const IntVec& o) const {
  require(size() == o.size(), "IntVec size mismatch in lex_less");
  for (size_t i = 0; i < size(); ++i) {
    if (v_.data()[i] != o[i]) return v_.data()[i] < o[i];
  }
  return false;
}

Int IntVec::content() const {
  Int g = 0;
  for (Int x : *this) g = gcd(g, x);
  return g;
}

IntVec IntVec::primitive() const {
  Int g = content();
  if (g <= 1) return *this;
  IntVec r(size());
  for (size_t i = 0; i < size(); ++i) r[i] = v_.data()[i] / g;
  return r;
}

std::string IntVec::str() const {
  std::ostringstream os;
  os << '(';
  for (size_t i = 0; i < size(); ++i) {
    if (i) os << ", ";
    os << v_.data()[i];
  }
  os << ')';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntVec& v) { return os << v.str(); }

}  // namespace lmre
