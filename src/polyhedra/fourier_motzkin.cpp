#include "polyhedra/fourier_motzkin.h"

#include <string>

#include "support/error.h"

namespace lmre {

Int Bound::eval(const IntVec& outer, bool lower) const {
  // The bound expression may mention only outer variables; `outer` carries
  // the full-width prefix (entries at and beyond this level must be zero in
  // the coefficients, which extraction guarantees).
  Int num = expr.eval(outer);
  return lower ? ceil_div(num, divisor) : floor_div(num, divisor);
}

bool LoopBounds::range(size_t k, const IntVec& outer, Int& lo, Int& hi) const {
  require(k < depth(), "LoopBounds::range level out of range");
  if (lowers[k].empty() || uppers[k].empty()) return false;
  bool first = true;
  for (const auto& b : lowers[k]) {
    Int v = b.eval(outer, /*lower=*/true);
    lo = first ? v : std::max(lo, v);
    first = false;
  }
  first = true;
  for (const auto& b : uppers[k]) {
    Int v = b.eval(outer, /*lower=*/false);
    hi = first ? v : std::min(hi, v);
    first = false;
  }
  return true;
}

ConstraintSystem eliminate_variable(const ConstraintSystem& system, size_t var) {
  require(var < system.dims(), "eliminate_variable: var out of range");
  const size_t n = system.dims();
  ConstraintSystem out(n);
  std::vector<const AffineExpr*> lowers, uppers;
  for (const auto& c : system.constraints()) {
    Int a = c.expr.coeff(var);
    if (a > 0) {
      lowers.push_back(&c.expr);  // a*x + f >= 0  =>  x >= -f/a
    } else if (a < 0) {
      uppers.push_back(&c.expr);  // -q*x + g >= 0  =>  x <= g/q
    } else {
      out.add(c.expr);
    }
  }
  // Combine every (lower, upper) pair:  x >= -f/p  and  x <= g/q  imply
  // q*f + p*g >= 0.  Each row is built once, in place; the checked
  // products and sums run in the order `l * q + u * p` runs them (every
  // product before any sum), so an overflow reports the same error.
  std::vector<Int> scaled_upper(n);
  for (const AffineExpr* l : lowers) {
    Int p = l->coeff(var);
    for (const AffineExpr* u : uppers) {
      Int q = checked_neg(u->coeff(var));
      IntVec row(n);
      for (size_t i = 0; i < n; ++i) row[i] = checked_mul(l->coeffs()[i], q);
      Int constant = checked_mul(l->constant(), q);
      for (size_t i = 0; i < n; ++i) {
        scaled_upper[i] = checked_mul(u->coeffs()[i], p);
      }
      Int upper_constant = checked_mul(u->constant(), p);
      for (size_t i = 0; i < n; ++i) row[i] = checked_add(row[i], scaled_upper[i]);
      ensure(row[var] == 0, "FM combination kept the variable");
      out.add(AffineExpr(std::move(row), checked_add(constant, upper_constant)));
    }
  }
  return out;
}

namespace {

// Shared growth guard: FM combination can square the constraint count per
// eliminated variable, so pathological systems explode long before any
// per-point search budget applies.  Refusing loudly lets callers degrade
// to "undecided" instead of stalling.
void check_growth(const ConstraintSystem& cur, size_t max_constraints) {
  if (max_constraints != 0 && cur.size() > max_constraints) {
    throw UnsupportedError(
        "fourier-motzkin elimination grew past " +
        std::to_string(max_constraints) + " constraints");
  }
}

}  // namespace

LoopBounds extract_loop_bounds(const ConstraintSystem& system,
                               size_t max_constraints) {
  const size_t n = system.dims();
  LoopBounds lb;
  lb.lowers.resize(n);
  lb.uppers.resize(n);

  ConstraintSystem cur = system;
  for (size_t k = n; k-- > 0;) {
    // Record the bounds on variable k before eliminating it; at this point
    // `cur` only mentions variables 0..k.
    for (const auto& c : cur.constraints()) {
      Int a = c.expr.coeff(k);
      if (a > 0) {
        // a*x_k + f >= 0  =>  x_k >= ceil(-f / a)
        AffineExpr f = c.expr;
        f.set_coeff(k, 0);
        lb.lowers[k].push_back(Bound{-f, a});
      } else if (a < 0) {
        // a*x_k + f >= 0  =>  x_k <= floor(f / -a)
        AffineExpr f = c.expr;
        f.set_coeff(k, 0);
        lb.uppers[k].push_back(Bound{f, checked_neg(a)});
      }
    }
    if (lb.lowers[k].empty() || lb.uppers[k].empty()) {
      throw UnsupportedError("extract_loop_bounds: variable " + std::to_string(k) +
                             " is unbounded");
    }
    cur = eliminate_variable(cur, k);
    if (cur.trivially_empty()) {
      lb.known_empty = true;
      return lb;
    }
    check_growth(cur, max_constraints);
  }
  return lb;
}

bool rationally_feasible(const ConstraintSystem& system,
                         size_t max_constraints) {
  ConstraintSystem cur = system;
  if (cur.trivially_empty()) return false;
  for (size_t k = cur.dims(); k-- > 0;) {
    cur = eliminate_variable(cur, k);
    if (cur.trivially_empty()) return false;
    check_growth(cur, max_constraints);
  }
  // All variables eliminated: only constant constraints remain and none is
  // negative (trivially_empty checked after each round).
  return true;
}

ConstraintSystem remove_redundant(const ConstraintSystem& system) {
  // Greedy: drop any constraint whose negation is infeasible against the
  // (current) rest.  Over the rationals "!c" for c: expr >= 0 is expr < 0;
  // we test the closed relaxation expr <= -1 scaled -- sound for the
  // integer scans we feed these systems to, and exact when coefficients are
  // integral (expr < 0 over Q admits a solution iff expr <= -eps does; with
  // integer points downstream, expr <= -1 is the right test).
  std::vector<Constraint> kept(system.constraints().begin(),
                               system.constraints().end());
  for (size_t i = kept.size(); i-- > 0;) {
    ConstraintSystem rest(system.dims());
    for (size_t j = 0; j < kept.size(); ++j) {
      if (j != i) rest.add(kept[j].expr);
    }
    // negation: -expr - 1 >= 0  (expr <= -1).
    rest.add(-(kept[i].expr) - 1);
    if (!rationally_feasible(rest)) {
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  ConstraintSystem out(system.dims());
  for (const auto& c : kept) out.add(c.expr);
  return out;
}

}  // namespace lmre
