#include "analysis/window.h"

#include "analysis/distinct.h"
#include "analysis/nonuniform.h"
#include "dependence/dependence.h"
#include "linalg/kernel.h"
#include "support/error.h"

namespace lmre {

Rational maxspan2(const IntBox& box, Int a, Int b) {
  require(box.dims() == 2, "maxspan2: nest depth must be 2");
  require(a != 0 || b != 0, "maxspan2: zero row");
  require(gcd(a, b) == 1, "maxspan2: row must be primitive");
  // Inner iterations at fixed u = a*i + b*j step along (-b, a); the span is
  // limited by whichever box side the step direction exhausts first.
  Int e1 = box.range(0).trip_count() - 1;  // extent along i
  Int e2 = box.range(1).trip_count() - 1;  // extent along j
  std::optional<Rational> span;
  if (b != 0) span = Rational(e1, checked_abs(b));
  if (a != 0) {
    Rational s2(e2, checked_abs(a));
    span = span ? rat_min(*span, s2) : s2;
  }
  return *span;
}

Rational mws2_eq1(const IntVec& alpha, const Rational& span, const IntMat& t) {
  require(alpha.size() == 2 && t.rows() == 2 && t.cols() == 2,
          "mws2_eq1: 2-deep nests only");
  Int det = t.determinant();
  require(det == 1 || det == -1, "mws2_eq1: T must be unimodular");
  Int w = checked_sub(checked_mul(alpha[1], t(0, 0)), checked_mul(alpha[0], t(0, 1)));
  Rational scaled = Rational(w) / Rational(det);
  Rational result = (span + Rational(1)) * scaled;
  return result < Rational(0) ? -result : result;
}

Rational mws2_estimate(const IntVec& alpha, const IntBox& box, Int a, Int b) {
  require(alpha.size() == 2, "mws2_estimate: alpha must have 2 entries");
  Int w = checked_abs(checked_sub(checked_mul(alpha[1], a), checked_mul(alpha[0], b)));
  if (w == 0) return Rational(1);
  return (maxspan2(box, a, b) + Rational(1)) * Rational(w);
}

Int mws_from_reuse_vector(const IntVec& v, const IntBox& box, bool with_plus_one) {
  require(v.size() == box.dims(), "mws_from_reuse_vector: dimension mismatch");
  IntVec d = v;
  if (!d.lex_positive()) d = -d;
  if (d.is_zero()) return 0;
  const size_t n = d.size();
  Int total = 0;
  for (size_t k = 0; k < n; ++k) {
    if (d[k] <= 0) continue;
    Int term = d[k];
    for (size_t j = k + 1; j < n; ++j) {
      Int side = checked_sub(box.range(j).trip_count(), checked_abs(d[j]));
      term = checked_mul(term, std::max<Int>(side, 0));
    }
    total = checked_add(total, term);
  }
  return with_plus_one ? checked_add(total, 1) : total;
}

Int mws3_paper(const IntVec& v, const IntBox& box) {
  require(box.dims() == 3 && v.size() == 3, "mws3_paper: depth must be 3");
  IntVec d = v;
  if (!d.lex_positive()) d = -d;
  Int n2 = box.range(1).trip_count(), n3 = box.range(2).trip_count();
  Int base = checked_mul(d[0], checked_mul(checked_sub(n2, checked_abs(d[1])),
                                           checked_sub(n3, checked_abs(d[2]))));
  if (d[1] <= 0) return checked_add(base, 1);
  return checked_add(checked_add(base, checked_mul(checked_abs(d[1]),
                                                   checked_sub(n3, checked_abs(d[2])))),
                     1);
}

namespace {

// Candidate reuse vectors for an array: kernel generators of the access
// matrix plus the constant cross-reference distances.  The window estimate
// uses the lexicographically largest one ("it spans the maximum region in
// the iteration space", Section 4.3).
std::optional<IntVec> dominant_reuse_vector(const LoopNest& nest,
                                           const DependenceInfo& info, ArrayId array) {
  std::optional<IntVec> best;
  const std::vector<ArrayRef>& refs = nest.all_refs();
  for (const auto& dep : info.deps) {
    if (refs[dep.src_ref].array != array) continue;
    if (!best || best->lex_less(dep.distance)) best = dep.distance;
  }
  return best;
}

}  // namespace

std::optional<Int> estimate_mws_array(const LoopNest& nest, ArrayId array) {
  std::optional<DependenceInfo> deps;
  return estimate_mws_array(nest, deps, array);
}

std::optional<Int> estimate_mws_array(const LoopNest& nest,
                                      std::optional<DependenceInfo>& deps, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  require(!refs.empty(), "estimate_mws_array: array not referenced");
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) return std::nullopt;
  }

  if (nest.depth() == 2 && nest.array(array).dims() == 1) {
    // eq. (2) in untransformed order (first row (1, 0)); offsets do not
    // enter the formula (Section 4.1) -- e.g. Example 8's untransformed
    // window estimate is 50.
    IntVec alpha = refs[0].access.row(0);
    return mws2_estimate(alpha, nest.bounds(), 1, 0).ceil();
  }

  if (!deps) deps = analyze_dependences(nest);
  std::optional<IntVec> v = dominant_reuse_vector(nest, *deps, array);
  if (!v) return 0;  // no reuse: nothing ever lives across iterations
  // The window can never exceed the number of distinct elements touched.
  Int cap = estimate_distinct(nest, array).distinct;
  return std::min(mws_from_reuse_vector(*v, nest.bounds()), cap);
}

std::optional<Int> estimate_mws_total(const LoopNest& nest) {
  std::optional<DependenceInfo> deps;
  Int total = 0;
  bool any = false;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    std::optional<Int> m = estimate_mws_array(nest, deps, id);
    if (!m) {
      // Non-uniform references: no window formula.  Fall back on the upper
      // bound of the distinct count -- the window can never exceed the
      // number of distinct elements.
      m = nonuniform_bounds(nest, id).upper;
    }
    total = checked_add(total, *m);
    any = true;
  }
  if (!any) return std::nullopt;
  return total;
}

}  // namespace lmre
