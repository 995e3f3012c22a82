#pragma once

// Linear inequality constraints and systems of them.
//
// A Constraint is  expr >= 0 ; a ConstraintSystem is a conjunction over a
// fixed set of variables.  Iteration spaces (original and transformed) are
// represented this way and handed to Fourier-Motzkin for bound extraction.

#include <iosfwd>
#include <string>
#include <vector>

#include "polyhedra/affine.h"

namespace lmre {

/// The inequality expr >= 0.
struct Constraint {
  AffineExpr expr;

  /// True when x satisfies the constraint.
  bool satisfied_by(const IntVec& x) const { return expr.eval(x) >= 0; }

  /// Divides all coefficients and the constant by their gcd (the constant is
  /// floor-divided, which is sound and tightening for integer points).
  Constraint normalized() const;

  bool operator==(const Constraint& o) const { return expr == o.expr; }
};

std::ostream& operator<<(std::ostream& os, const Constraint& c);

class ConstraintSystem {
 public:
  explicit ConstraintSystem(size_t dims) : dims_(dims) {}

  size_t dims() const { return dims_; }
  const std::vector<Constraint>& constraints() const { return cs_; }
  size_t size() const { return cs_.size(); }

  /// Adds expr >= 0 (normalized; exact duplicates and constraints strictly
  /// dominated by an existing one with identical coefficients are dropped).
  void add(const AffineExpr& expr);

  /// As above, normalizing `expr` in place and moving it in.
  void add(AffineExpr&& expr);

  /// Adds lo <= expr <= hi as two constraints.
  void add_range(const AffineExpr& expr, Int lo, Int hi);

  /// Adds expr == value as two inequalities.
  void add_equality(const AffineExpr& expr, Int value);

  /// True when x satisfies all constraints.
  bool contains(const IntVec& x) const;

  /// True when a constant constraint is negative (system trivially empty).
  bool trivially_empty() const;

  std::string str(const std::vector<std::string>& names = {}) const;

 private:
  size_t dims_;
  std::vector<Constraint> cs_;
};

std::ostream& operator<<(std::ostream& os, const ConstraintSystem& s);

}  // namespace lmre
