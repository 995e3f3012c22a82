#include "dependence/lattice.h"

#include <limits>
#include <vector>

#include "polyhedra/scanner.h"
#include "support/error.h"

namespace lmre {

namespace {

bool realizable(const IntVec& d, const IntBox& box) {
  for (size_t k = 0; k < d.size(); ++k) {
    if (checked_abs(d[k]) > box.range(k).trip_count() - 1) return false;
  }
  return true;
}

// Lex-min positive realizable d = p + H t over integer t, where H's columns
// are in column-echelon form (strictly increasing pivot rows, positive
// pivots), so t -> d preserves lexicographic order.  A d with more leading
// zeros is lex-smaller, hence the deepest level with a point wins, and
// within a level the lex-first t is the lex-min d.
std::optional<IntVec> echelon_lexmin(const IntVec& p, const IntMat& h,
                                     const IntBox& box) {
  const size_t n = p.size();
  const size_t kdim = h.cols();
  if (kdim == 0) {
    if (p.lex_positive() && realizable(p, box)) return p;
    return std::nullopt;
  }
  // d_k as an affine function of t.
  std::vector<AffineExpr> d(n);
  for (size_t k = 0; k < n; ++k) d[k] = AffineExpr(h.row(k), p[k]);
  for (size_t l = n; l-- > 0;) {
    ConstraintSystem sys(kdim);
    for (size_t k = 0; k < n; ++k) {
      if (k < l) {
        sys.add_equality(d[k], 0);
      } else {
        Int m = box.range(k).trip_count() - 1;
        sys.add_range(d[k], k == l ? 1 : -m, m);
      }
    }
    if (sys.trivially_empty()) continue;
    FirstPointResult first =
        first_point(sys, std::numeric_limits<Int>::max());
    ensure(first.complete, "lexmin search ran out of an unbounded budget");
    if (first.point) return p + h * *first.point;
  }
  return std::nullopt;
}

}  // namespace

LexminPair lexmin_positive_solutions(const IntMat& a, const IntVec& c,
                                     const IntBox& box) {
  require(a.cols() == box.dims(), "lexmin_positive_solutions: shape mismatch");
  LexminPair out;
  std::optional<EchelonCoset> sol = echelon_solutions(a, c);
  if (!sol) return out;
  out.forward = echelon_lexmin(sol->particular, sol->basis, box);
  out.backward = c.is_zero() ? out.forward
                             : echelon_lexmin(-sol->particular, sol->basis, box);

  auto check = [&](const std::optional<IntVec>& d, const IntVec& rhs) {
    ensure(!d || (a * *d == rhs && realizable(*d, box) && d->lex_positive()),
           "lexmin search returned a distance off the lattice or the box");
  };
  check(out.forward, c);
  check(out.backward, -c);
  return out;
}

}  // namespace lmre
