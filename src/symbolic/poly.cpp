#include "symbolic/poly.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace lmre {

Poly Poly::constant(size_t vars, Int c) {
  Poly p(vars);
  p.add_term(std::vector<Int>(vars, 0), c);
  return p;
}

Poly Poly::variable(size_t vars, size_t index) {
  require(index < vars, "Poly::variable out of range");
  Poly p(vars);
  std::vector<Int> exps(vars, 0);
  exps[index] = 1;
  p.add_term(exps, 1);
  return p;
}

void Poly::add_term(const std::vector<Int>& exps, Int coef) {
  if (coef == 0) return;
  auto [it, inserted] = terms_.emplace(exps, coef);
  if (!inserted) {
    it->second = checked_add(it->second, coef);
    if (it->second == 0) terms_.erase(it);
  }
}

Poly Poly::operator+(const Poly& o) const {
  require(vars_ == o.vars_, "Poly: variable count mismatch");
  Poly out = *this;
  for (const auto& [e, c] : o.terms_) out.add_term(e, c);
  return out;
}

Poly Poly::operator-(const Poly& o) const { return *this + (o * Int{-1}); }

Poly Poly::operator*(const Poly& o) const {
  require(vars_ == o.vars_, "Poly: variable count mismatch");
  Poly out(vars_);
  for (const auto& [e1, c1] : terms_) {
    for (const auto& [e2, c2] : o.terms_) {
      std::vector<Int> e(vars_);
      for (size_t k = 0; k < vars_; ++k) e[k] = checked_add(e1[k], e2[k]);
      out.add_term(e, checked_mul(c1, c2));
    }
  }
  return out;
}

Poly Poly::operator*(Int s) const {
  Poly out(vars_);
  if (s == 0) return out;
  for (const auto& [e, c] : terms_) out.add_term(e, checked_mul(c, s));
  return out;
}

Int Poly::eval(const std::vector<Int>& values) const {
  require(values.size() == vars_, "Poly::eval arity mismatch");
  Int total = 0;
  for (const auto& [e, c] : terms_) {
    Int term = c;
    for (size_t k = 0; k < vars_; ++k) {
      for (Int p = 0; p < e[k]; ++p) term = checked_mul(term, values[k]);
    }
    total = checked_add(total, term);
  }
  return total;
}

Int Poly::degree() const {
  Int best = 0;
  for (const auto& [e, c] : terms_) {
    (void)c;
    Int d = 0;
    for (Int x : e) d += x;
    best = std::max(best, d);
  }
  return best;
}

std::string Poly::str() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const auto& [e, c] : terms_) {
    Int coef = c;
    if (first) {
      if (coef < 0) {
        os << '-';
        coef = checked_neg(coef);
      }
    } else {
      os << (coef < 0 ? " - " : " + ");
      coef = checked_abs(coef);
    }
    first = false;
    bool has_var = false;
    std::ostringstream vs;
    for (size_t k = 0; k < vars_; ++k) {
      if (e[k] == 0) continue;
      if (has_var) vs << '*';
      vs << 'N' << (k + 1);
      if (e[k] > 1) vs << '^' << e[k];
      has_var = true;
    }
    if (!has_var) {
      os << coef;
    } else if (coef == 1) {
      os << vs.str();
    } else {
      os << coef << '*' << vs.str();
    }
  }
  return os.str();
}

std::vector<PolyTerm> Poly::terms() const {
  std::vector<PolyTerm> out;
  out.reserve(terms_.size());
  for (const auto& [e, c] : terms_) out.push_back({e, c});
  return out;
}

}  // namespace lmre
