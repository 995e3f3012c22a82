#pragma once

// Clamped-product symbolic expressions.
//
// The trace oracle (src/exact) counts distinct accesses, reuse, and window
// sizes over a *finite* iteration box, so every closed form that claims to
// match it must reproduce the clamping the box imposes: a reuse volume
// prod_k (N_k - |d_k|) is zero -- not negative -- once any |d_k| >= N_k.
// A plain polynomial cannot express that, which is why the exact symbolic
// path is built on sums of *clamped products*
//
//     expr  =  sum_t  c_t * prod_f  clamp(N_{var(f)} - sub(f))
//
// where clamp(x) = max(x, 0) for ordinary factors and min(max(x, 0), 1)
// for indicator factors (rendered "[Nk > s]").  In the interior of the
// bound space (all factors positive) an expression IS the paper's
// polynomial; interior() drops the clamps and returns that Poly for
// display and JSON.  eval() keeps the clamps and is exact everywhere,
// using checked 64-bit arithmetic throughout.

#include <map>
#include <string>
#include <vector>

#include "support/checked.h"
#include "symbolic/poly.h"

namespace lmre {

/// One factor of a clamped product over the symbolic bounds N1..Nn.
/// Ordinary factor: max(N_{var+1} - sub, 0).  Indicator factor:
/// min(max(N_{var+1} - sub, 0), 1), i.e. the Iverson bracket
/// [N_{var+1} > sub].
struct SymbolicFactor {
  size_t var = 0;          ///< 0-based bound index (variable N_{var+1})
  Int sub = 0;             ///< subtracted constant
  bool indicator = false;  ///< cap the clamped value at 1

  friend bool operator==(const SymbolicFactor& a, const SymbolicFactor& b) {
    return a.var == b.var && a.sub == b.sub && a.indicator == b.indicator;
  }
  friend bool operator<(const SymbolicFactor& a, const SymbolicFactor& b) {
    if (a.var != b.var) return a.var < b.var;
    if (a.sub != b.sub) return a.sub < b.sub;
    return a.indicator < b.indicator;
  }
};

/// Sum of coefficient-weighted clamped products.  Canonical form: factors
/// within a term are sorted, redundant indicators are dropped (an
/// indicator [Nk > s] is implied by any ordinary factor (Nk - s') with
/// s' >= s in the same term, since the term vanishes anyway when that
/// factor clamps to zero), like terms are merged, and zero terms removed,
/// so structural equality (==) is semantic equality of canonical forms.
class SymbolicExpr {
 public:
  explicit SymbolicExpr(size_t vars) : vars_(vars) {}

  static SymbolicExpr constant(size_t vars, Int c);
  /// prod_k max(N_k - subs[k], 0), scaled by coef.
  static SymbolicExpr clamped_product(const std::vector<Int>& subs, Int coef = 1);

  size_t vars() const { return vars_; }
  bool is_zero() const { return terms_.empty(); }

  /// Adds coef * prod(factors) to the sum (canonicalizing the factors).
  void add_term(Int coef, std::vector<SymbolicFactor> factors);

  SymbolicExpr& operator+=(const SymbolicExpr& o);
  SymbolicExpr operator+(const SymbolicExpr& o) const;
  SymbolicExpr operator-(const SymbolicExpr& o) const;
  SymbolicExpr operator*(Int s) const;
  bool operator==(const SymbolicExpr& o) const {
    return vars_ == o.vars_ && terms_ == o.terms_;
  }

  /// Exact evaluation at concrete bounds (one value per variable), with
  /// per-factor clamping and checked arithmetic.
  Int eval(const std::vector<Int>& bounds) const;

  /// The interior polynomial: clamps dropped, indicators replaced by 1.
  /// Valid wherever every ordinary factor is positive and every indicator
  /// holds -- i.e. for bounds comfortably larger than the distances.
  Poly interior() const;

  /// Factored rendering, e.g. "3*N2*(N3 - 2)*[N1 > 1] + 2".  Parenthesized
  /// factors are implicitly clamped at zero (see file comment).
  std::string str() const;

 private:
  // canonical factor list -> coefficient; zero coefficients never stored.
  std::map<std::vector<SymbolicFactor>, Int> terms_;
  size_t vars_;
};

/// Exact symbolic maximum window size of a single reuse chain: the
/// pointwise minimum of a short list of clamped-product sums (one branch
/// per prefix of the chain's positive components; see
/// symbolic_chain_window in derive.h for the derivation).  The *last*
/// branch is the paper's Section 4.3 summation; the earlier branches cap
/// it by partial box volumes so the minimum is exact even when some
/// |d_k| >= N_k.
class SymbolicWindow {
 public:
  static SymbolicWindow zero(size_t vars);
  explicit SymbolicWindow(SymbolicExpr first) { branches_.push_back(std::move(first)); }

  void add_branch(SymbolicExpr e);
  const std::vector<SymbolicExpr>& branches() const { return branches_; }
  size_t vars() const { return branches_.front().vars(); }
  bool is_zero() const;

  /// min over branch evaluations (exact, checked).
  Int eval(const std::vector<Int>& bounds) const;

  /// Interior polynomial of the final (summation) branch.
  Poly interior() const;

  /// "min(a, b, ...)", or the single branch's rendering.
  std::string str() const;

 private:
  std::vector<SymbolicExpr> branches_;
};

}  // namespace lmre
