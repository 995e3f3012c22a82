#include "verify/search.h"

#include "linalg/diophantine.h"
#include "polyhedra/fourier_motzkin.h"
#include "polyhedra/scanner.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

AffineExpr SearchSpace::delta(size_t k) const {
  return AffineExpr(lin.row(k), offset[k]);
}

AffineExpr SearchSpace::trow(const IntMat& t, size_t r) const {
  AffineExpr e(dims());
  Int constant = 0;
  for (size_t k = 0; k < n(); ++k) {
    Int c = t(r, k);
    if (c == 0) continue;
    for (size_t j = 0; j < dims(); ++j) {
      if (lin(k, j) != 0) {
        e.set_coeff(j, checked_add(e.coeff(j), checked_mul(c, lin(k, j))));
      }
    }
    constant = checked_add(constant, checked_mul(c, offset[k]));
  }
  e.set_constant(constant);
  return e;
}

std::pair<IntVec, IntVec> SearchSpace::to_pair(const IntVec& x,
                                               const IntBox& box) const {
  if (!pairwise) return corner_pair(offset + lin * x, box);
  IntVec i(n()), j(n());
  for (size_t k = 0; k < n(); ++k) {
    i[k] = x[k];
    j[k] = x[n() + k];
  }
  return {i, j};
}

std::pair<IntVec, IntVec> corner_pair(const IntVec& d, const IntBox& box) {
  const size_t n = box.dims();
  IntVec i(n), j(n);
  for (size_t k = 0; k < n; ++k) {
    Int lo = box.range(k).lo;
    i[k] = d[k] >= 0 ? lo : checked_sub(lo, d[k]);
    j[k] = checked_add(i[k], d[k]);
  }
  return {i, j};
}

namespace {

// A difference-parameter space over no variables: undecided, or empty
// (one infeasible constant row).
SearchSpace constant_space(size_t n, bool undecided) {
  SearchSpace space;
  space.lin = IntMat(n, 0);
  space.offset = IntVec(n);
  space.undecided = undecided;
  if (!undecided) space.base.add(AffineExpr::constant_expr(0, -1));
  return space;
}

}  // namespace

SearchSpace lattice_space(const ArrayRef& src, const ArrayRef& dst,
                          const IntBox& box) {
  const size_t n = box.dims();
  try {
    std::optional<EchelonCoset> coset =
        echelon_solutions(src.access, src.offset - dst.offset);
    // No integer distance: no dependence.
    if (!coset) return constant_space(n, /*undecided=*/false);
    SearchSpace space;
    space.base = ConstraintSystem(coset->basis.cols());
    space.lin = std::move(coset->basis);
    space.offset = std::move(coset->particular);
    for (size_t k = 0; k < n; ++k) {
      Int spread = checked_sub(box.range(k).hi, box.range(k).lo);
      space.base.add_range(space.delta(k), checked_neg(spread), spread);
    }
    return space;
  } catch (const Error&) {
    return constant_space(n, /*undecided=*/true);
  }
}

SearchSpace pair_space(const ArrayRef& src, const ArrayRef& dst,
                       const IntBox& box) {
  const size_t n = box.dims();
  try {
    SearchSpace space;
    space.pairwise = true;
    space.base = ConstraintSystem(2 * n);
    space.lin = IntMat(n, 2 * n);
    space.offset = IntVec(n);
    for (size_t k = 0; k < n; ++k) {
      space.lin(k, k) = -1;
      space.lin(k, n + k) = 1;
      const Range& r = box.range(k);
      space.base.add_range(AffineExpr::variable(2 * n, k), r.lo, r.hi);
      space.base.add_range(AffineExpr::variable(2 * n, n + k), r.lo, r.hi);
    }
    for (size_t row = 0; row < src.access.rows(); ++row) {
      AffineExpr e(2 * n);
      for (size_t k = 0; k < n; ++k) {
        e.set_coeff(k, src.access(row, k));
        e.set_coeff(n + k, checked_neg(dst.access(row, k)));
      }
      space.base.add_equality(e, checked_sub(dst.offset[row], src.offset[row]));
    }
    return space;
  } catch (const Error&) {
    return constant_space(n, /*undecided=*/true);
  }
}

namespace {

// d == 0 on levels before p, d_p >= 1: the branch of "d lex-positive"
// decided at level p (0-based).
void add_source_first_branch(const SearchSpace& space, ConstraintSystem& sys,
                             size_t p) {
  for (size_t k = 0; k < p; ++k) sys.add_equality(space.delta(k), 0);
  sys.add(space.delta(p) - 1);
}

// Per-level constraints of a concrete direction vector (source-first
// feasibility comes from the vector itself).
void add_direction_constraints(const SearchSpace& space, ConstraintSystem& sys,
                               const std::vector<Dir>& dirs) {
  for (size_t k = 0; k < dirs.size(); ++k) {
    switch (dirs[k]) {
      case Dir::kAny:
        break;
      case Dir::kLt:  // I_k < J_k, i.e. d_k >= 1
        sys.add(space.delta(k) - 1);
        break;
      case Dir::kEq:
        sys.add_equality(space.delta(k), 0);
        break;
      case Dir::kGt:  // d_k <= -1
        sys.add(-space.delta(k) - 1);
        break;
    }
  }
}

// Cap on Fourier-Motzkin elimination growth inside one branch.  Each
// eliminated variable can square the constraint count, so a pathological
// pair space stalls in elimination long before the per-point step budget
// is even consulted; past the cap the polyhedra layer throws and the
// branch degrades to "undecided" (kUnproven) exactly like an exhausted
// step budget.  512 is far above anything the well-conditioned systems
// here produce (tens of constraints).
constexpr size_t kFmConstraintCap = 512;

// Runs one branch: the space's base plus the rows `build` adds, then a
// rational fast-reject and a budget-capped integer point search.  A space
// over no variables is a constant check.  Overflow anywhere leaves the
// branch undecided.
template <class Build>
void run_branch(const SearchSpace& space, const IntBox& box, Int budget,
                SearchOutcome* out, Build&& build) {
  if (out->witness.has_value()) return;
  if (space.undecided) {
    out->complete = false;
    return;
  }
  try {
    ConstraintSystem sys = space.base;
    build(sys);
    if (sys.trivially_empty()) return;
    if (sys.dims() == 0) {
      out->witness = space.to_pair(IntVec(), box);
      return;
    }
    if (!rationally_feasible(sys, kFmConstraintCap)) return;
    FirstPointResult fp = first_point(sys, budget, kFmConstraintCap);
    if (fp.point.has_value()) {
      out->witness = space.to_pair(*fp.point, box);
    } else if (!fp.complete) {
      out->complete = false;
    }
  } catch (const Error&) {
    // Overflow or an unbounded projection: treat the branch as undecided.
    out->complete = false;
  }
}

}  // namespace

SearchOutcome search_branch(const SearchSpace& space, const IntMat& t,
                            const SearchBranch& branch, const IntBox& box,
                            Int budget) {
  SearchOutcome out;
  run_branch(space, box, budget, &out, [&](ConstraintSystem& sys) {
    add_source_first_branch(space, sys, branch.source_level);
    for (size_t r = 0; r < branch.zero_rows; ++r) {
      sys.add_equality(space.trow(t, r), 0);
    }
    sys.add(space.trow(t, branch.row) * branch.sign - 1);
  });
  return out;
}

namespace {

// Runs the branches in order up to the first witness.
SearchOutcome first_witness(const SearchSpace& space, const IntMat& t,
                            const std::vector<SearchBranch>& branches,
                            const IntBox& box, Int budget) {
  SearchOutcome out;
  for (const SearchBranch& b : branches) {
    SearchOutcome o = search_branch(space, t, b, box, budget);
    if (o.witness.has_value()) return {std::move(o.witness), out.complete};
    out.complete = out.complete && o.complete;
  }
  return out;
}

}  // namespace

SearchOutcome find_reversal(const SearchSpace& space, const IntMat& t,
                            const IntBox& box, Int budget) {
  std::vector<SearchBranch> branches;
  for (size_t p = 0; p < space.n(); ++p) {
    for (size_t q = 0; q < space.n(); ++q) branches.push_back({p, q, q, -1});
  }
  return first_witness(space, t, branches, box, budget);
}

SearchOutcome find_negative_component(const SearchSpace& space, const IntMat& t,
                                      size_t row, const IntBox& box, Int budget) {
  std::vector<SearchBranch> branches;
  for (size_t p = 0; p < space.n(); ++p) branches.push_back({p, 0, row, -1});
  return first_witness(space, t, branches, box, budget);
}

SearchOutcome find_carried(const SearchSpace& space, const IntMat& t,
                           size_t level, const IntBox& box, Int budget) {
  std::vector<SearchBranch> branches;
  for (size_t p = 0; p < space.n(); ++p) branches.push_back({p, level, level, 1});
  return first_witness(space, t, branches, box, budget);
}

SearchOutcome find_reversal_dirs(const SearchSpace& space, const IntMat& t,
                                 const std::vector<Dir>& dirs, const IntBox& box,
                                 Int budget) {
  SearchOutcome out;
  for (size_t q = 0; q < space.n() && !out.witness; ++q) {
    run_branch(space, box, budget, &out, [&](ConstraintSystem& sys) {
      add_direction_constraints(space, sys, dirs);
      for (size_t r = 0; r < q; ++r) sys.add_equality(space.trow(t, r), 0);
      sys.add(-space.trow(t, q) - 1);
    });
  }
  return out;
}

SearchOutcome find_negative_component_dirs(const SearchSpace& space,
                                           const IntMat& t,
                                           const std::vector<Dir>& dirs,
                                           size_t row, const IntBox& box,
                                           Int budget) {
  SearchOutcome out;
  run_branch(space, box, budget, &out, [&](ConstraintSystem& sys) {
    add_direction_constraints(space, sys, dirs);
    sys.add(-space.trow(t, row) - 1);
  });
  return out;
}

SearchOutcome find_any_pair_dirs(const SearchSpace& space,
                                 const std::vector<Dir>& dirs, const IntBox& box,
                                 Int budget) {
  SearchOutcome out;
  run_branch(space, box, budget, &out, [&](ConstraintSystem& sys) {
    add_direction_constraints(space, sys, dirs);
  });
  return out;
}

}  // namespace lmre
