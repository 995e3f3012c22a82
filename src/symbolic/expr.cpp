#include "symbolic/expr.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace lmre {

namespace {

// Canonicalizes a factor list in place: sort, dedupe repeated indicators,
// and drop indicators implied by an ordinary factor on the same variable
// with an equal or larger subtrahend (if that factor clamps to zero the
// whole term is zero regardless of the indicator; if it is positive the
// indicator is 1).  Indicators with sub <= 0 are dropped outright: trip
// counts are >= 1, so [Nk > s] with s <= 0 always holds.
void canonicalize(std::vector<SymbolicFactor>& fs) {
  std::sort(fs.begin(), fs.end());
  std::vector<SymbolicFactor> out;
  out.reserve(fs.size());
  for (size_t i = 0; i < fs.size(); ++i) {
    const SymbolicFactor& f = fs[i];
    if (f.indicator) {
      if (f.sub <= 0) continue;
      if (!out.empty() && out.back() == f) continue;  // duplicate indicator
      bool implied = false;
      for (const SymbolicFactor& g : fs) {
        if (!g.indicator && g.var == f.var && g.sub >= f.sub) {
          implied = true;
          break;
        }
      }
      if (implied) continue;
    }
    out.push_back(f);
  }
  fs = std::move(out);
}

Int factor_value(const SymbolicFactor& f, const std::vector<Int>& bounds) {
  Int v = checked_sub(bounds[f.var], f.sub);
  if (v < 0) v = 0;
  if (f.indicator && v > 1) v = 1;
  return v;
}

std::string factor_str(const SymbolicFactor& f) {
  std::ostringstream os;
  std::string name = "N" + std::to_string(f.var + 1);
  if (f.indicator) {
    os << '[' << name << " > " << f.sub << ']';
  } else if (f.sub == 0) {
    os << name;
  } else if (f.sub > 0) {
    os << '(' << name << " - " << f.sub << ')';
  } else {
    os << '(' << name << " + " << checked_neg(f.sub) << ')';
  }
  return os.str();
}

}  // namespace

SymbolicExpr SymbolicExpr::constant(size_t vars, Int c) {
  SymbolicExpr e(vars);
  e.add_term(c, {});
  return e;
}

SymbolicExpr SymbolicExpr::clamped_product(const std::vector<Int>& subs, Int coef) {
  SymbolicExpr e(subs.size());
  std::vector<SymbolicFactor> fs;
  fs.reserve(subs.size());
  for (size_t k = 0; k < subs.size(); ++k) fs.push_back({k, subs[k], false});
  e.add_term(coef, std::move(fs));
  return e;
}

void SymbolicExpr::add_term(Int coef, std::vector<SymbolicFactor> factors) {
  if (coef == 0) return;
  for (const SymbolicFactor& f : factors)
    require(f.var < vars_, "SymbolicExpr factor variable out of range");
  canonicalize(factors);
  auto it = terms_.find(factors);
  if (it == terms_.end()) {
    terms_.emplace(std::move(factors), coef);
    return;
  }
  it->second = checked_add(it->second, coef);
  if (it->second == 0) terms_.erase(it);
}

SymbolicExpr& SymbolicExpr::operator+=(const SymbolicExpr& o) {
  require(vars_ == o.vars_, "SymbolicExpr arity mismatch");
  for (const auto& [fs, c] : o.terms_) add_term(c, fs);
  return *this;
}

SymbolicExpr SymbolicExpr::operator+(const SymbolicExpr& o) const {
  SymbolicExpr out = *this;
  out += o;
  return out;
}

SymbolicExpr SymbolicExpr::operator-(const SymbolicExpr& o) const {
  return *this + o * -1;
}

SymbolicExpr SymbolicExpr::operator*(Int s) const {
  SymbolicExpr out(vars_);
  if (s == 0) return out;
  for (const auto& [fs, c] : terms_) out.add_term(checked_mul(c, s), fs);
  return out;
}

Int SymbolicExpr::eval(const std::vector<Int>& bounds) const {
  require(bounds.size() == vars_, "SymbolicExpr::eval arity mismatch");
  Int total = 0;
  for (const auto& [fs, c] : terms_) {
    Int term = c;
    for (const SymbolicFactor& f : fs) {
      Int v = factor_value(f, bounds);
      if (v == 0) {
        term = 0;
        break;
      }
      term = checked_mul(term, v);
    }
    total = checked_add(total, term);
  }
  return total;
}

Poly SymbolicExpr::interior() const {
  Poly out(vars_);
  for (const auto& [fs, c] : terms_) {
    Poly term = Poly::constant(vars_, c);
    for (const SymbolicFactor& f : fs) {
      if (f.indicator) continue;
      term = term * (Poly::variable(vars_, f.var) - f.sub);
    }
    out = out + term;
  }
  return out;
}

std::string SymbolicExpr::str() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const auto& [fs, c] : terms_) {
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
    if (fs.empty()) {
      os << coef;
      continue;
    }
    bool wrote = false;
    if (coef != 1) {
      os << coef;
      wrote = true;
    }
    for (const SymbolicFactor& f : fs) {
      if (wrote) os << '*';
      os << factor_str(f);
      wrote = true;
    }
  }
  return os.str();
}

SymbolicWindow SymbolicWindow::zero(size_t vars) {
  return SymbolicWindow(SymbolicExpr(vars));
}

void SymbolicWindow::add_branch(SymbolicExpr e) {
  require(e.vars() == vars(), "SymbolicWindow arity mismatch");
  branches_.push_back(std::move(e));
}

bool SymbolicWindow::is_zero() const {
  // Window branches are sums of nonnegative clamped products, so a single
  // identically-zero branch pins the minimum at zero.
  for (const SymbolicExpr& b : branches_)
    if (b.is_zero()) return true;
  return false;
}

Int SymbolicWindow::eval(const std::vector<Int>& bounds) const {
  Int best = branches_.front().eval(bounds);
  for (size_t i = 1; i < branches_.size(); ++i) {
    Int v = branches_[i].eval(bounds);
    if (v < best) best = v;
  }
  return best;
}

Poly SymbolicWindow::interior() const { return branches_.back().interior(); }

std::string SymbolicWindow::str() const {
  if (branches_.size() == 1) return branches_.front().str();
  std::ostringstream os;
  os << "min(";
  for (size_t i = 0; i < branches_.size(); ++i) {
    if (i) os << ", ";
    os << branches_[i].str();
  }
  os << ')';
  return os.str();
}

}  // namespace lmre
