#pragma once

// Multivariate integer polynomials in the loop bounds N1..Nn.
//
// The paper states its results as expressions in the loop bounds --
// "reuse = (N1-1)(N2-2)", "MWS = d1(N2-|d2|)(N3-|d3|) + ..." -- valid for
// ALL bounds, not one instance.  A Poly is such an expression with the
// clamps dropped: the interior form of a symbolic/expr.h clamped product,
// used for display and JSON.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "linalg/vec.h"

namespace lmre {

/// One monomial of a Poly: coef * prod_k N_{k+1}^exps[k].
struct PolyTerm {
  std::vector<Int> exps;
  Int coef = 0;
};

/// Sparse multivariate polynomial with integer coefficients over the
/// variables N1..Nn (indices 0..n-1).
class Poly {
 public:
  /// The zero polynomial over n variables.
  explicit Poly(size_t vars) : vars_(vars) {}

  static Poly constant(size_t vars, Int c);
  static Poly variable(size_t vars, size_t index);  ///< N_{index+1}

  size_t vars() const { return vars_; }
  bool is_zero() const { return terms_.empty(); }

  Poly operator+(const Poly& o) const;
  Poly operator-(const Poly& o) const;
  Poly operator*(const Poly& o) const;
  Poly operator*(Int s) const;
  Poly operator+(Int c) const { return *this + constant(vars_, c); }
  Poly operator-(Int c) const { return *this - constant(vars_, c); }
  bool operator==(const Poly& o) const { return vars_ == o.vars_ && terms_ == o.terms_; }

  /// Evaluates at concrete bounds (one value per variable).
  Int eval(const std::vector<Int>& values) const;

  /// Total degree (0 for constants and the zero polynomial).
  Int degree() const;

  /// Human-readable form with the paper's variable names:
  /// "N1*N2 - 2*N1 - ..." (terms in graded-lex order, highest first).
  std::string str() const;

  /// The monomials in the same graded-lex order str() renders them.
  std::vector<PolyTerm> terms() const;

 private:
  // exponent vector -> coefficient; zero coefficients are never stored.
  std::map<std::vector<Int>, Int, std::greater<std::vector<Int>>> terms_;
  size_t vars_;
  void add_term(const std::vector<Int>& exps, Int coef);
};

}  // namespace lmre
