#include "polyhedra/constraint.h"

#include <ostream>
#include <sstream>

#include "support/error.h"

namespace lmre {

namespace {

// Divides all coefficients and the constant by their gcd, in place.
void normalize(AffineExpr& expr) {
  Int g = expr.coeffs().content();
  if (g <= 1) return;
  for (size_t i = 0; i < expr.dims(); ++i) expr.set_coeff(i, expr.coeff(i) / g);
  // expr >= 0  <=>  coeffs/g . x >= -constant/g ; floor on the negated
  // constant keeps all integer solutions and may cut fractional ones.
  expr.set_constant(floor_div(expr.constant(), g));
}

}  // namespace

Constraint Constraint::normalized() const {
  Constraint c = *this;
  normalize(c.expr);
  return c;
}

std::ostream& operator<<(std::ostream& os, const Constraint& c) {
  return os << c.expr.str() << " >= 0";
}

void ConstraintSystem::add(const AffineExpr& expr) { add(AffineExpr(expr)); }

void ConstraintSystem::add(AffineExpr&& expr) {
  require(expr.dims() == dims_, "ConstraintSystem::add dims mismatch");
  normalize(expr);
  for (auto& existing : cs_) {
    if (existing.expr.coeffs() == expr.coeffs()) {
      // Same left-hand side: keep the tighter (smaller) constant.
      if (expr.constant() < existing.expr.constant()) {
        existing.expr.set_constant(expr.constant());
      }
      return;
    }
  }
  cs_.push_back(Constraint{std::move(expr)});
}

void ConstraintSystem::add_range(const AffineExpr& expr, Int lo, Int hi) {
  add(expr - lo);        // expr - lo >= 0
  add(-(expr) + hi);     // hi - expr >= 0
}

void ConstraintSystem::add_equality(const AffineExpr& expr, Int value) {
  add_range(expr, value, value);
}

bool ConstraintSystem::contains(const IntVec& x) const {
  for (const auto& c : cs_)
    if (!c.satisfied_by(x)) return false;
  return true;
}

bool ConstraintSystem::trivially_empty() const {
  for (const auto& c : cs_) {
    if (c.expr.is_constant() && c.expr.constant() < 0) return true;
  }
  return false;
}

std::string ConstraintSystem::str(const std::vector<std::string>& names) const {
  std::ostringstream os;
  for (size_t i = 0; i < cs_.size(); ++i) {
    if (i) os << " && ";
    os << cs_[i].expr.str(names) << " >= 0";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const ConstraintSystem& s) {
  return os << s.str();
}

}  // namespace lmre
