#include "symbolic/derive.h"

#include <algorithm>
#include <sstream>

#include "analysis/window.h"
#include "linalg/diophantine.h"
#include "linalg/kernel.h"
#include "support/error.h"

namespace lmre {

namespace {

// Inclusion-exclusion enumerates 2^r subsets per overlap class; past this
// many distinct offsets the closed form is still exact but no longer
// cheap-to-derive, so the engine declines instead.
constexpr size_t kMaxSymbolicRefs = 12;

// How window-carrying distances compose through a transform plan: for a
// signed permutation, distances map through `t` and loop level k of the
// transformed nest iterates the original bound variable axes[k].
struct WindowPlan {
  const IntMat* t = nullptr;     // null: identity (untransformed)
  std::vector<size_t> axes;      // level -> bound variable
  bool exact = true;             // false: general plan, windows decline
};

std::vector<size_t> identity_axes(size_t n) {
  std::vector<size_t> axes(n);
  for (size_t k = 0; k < n; ++k) axes[k] = k;
  return axes;
}

SymbolicExpr full_volume(size_t n, Int scale) {
  return SymbolicExpr::clamped_product(std::vector<Int>(n, 0), scale);
}

// prod_k max(N_k - |d_k|, 0): the exact number of iteration pairs
// (J, J + d) with both endpoints in the bounds box.
SymbolicExpr reuse_volume_expr(const IntVec& d) {
  std::vector<Int> subs(d.size());
  for (size_t k = 0; k < d.size(); ++k) subs[k] = checked_abs(d[k]);
  return SymbolicExpr::clamped_product(subs);
}

IntVec lex_abs(const IntVec& d) { return d.lex_positive() ? d : -d; }

// References to one array grouped by lattice reachability: two offsets land
// in the same class when their difference is in the image lattice of the
// (injective) access matrix, i.e. the refs can touch common elements.
struct OverlapClass {
  IntVec base_offset;
  std::vector<IntVec> shifts;  // iteration-space shift of each member
};

std::vector<OverlapClass> overlap_classes(const IntMat& access,
                                          const std::vector<IntVec>& offsets) {
  std::vector<OverlapClass> classes;
  for (const IntVec& off : offsets) {
    bool placed = false;
    for (OverlapClass& cls : classes) {
      if (auto sol = solve_diophantine(access, off - cls.base_offset)) {
        cls.shifts.push_back(sol->particular);
        placed = true;
        break;
      }
    }
    if (!placed) classes.push_back({off, {IntVec(access.cols())}});
  }
  return classes;
}

// Exact distinct count of an injective uniformly generated group by
// inclusion-exclusion: classes have disjoint images, and within a class
// the S-fold image intersection is a box of side max(N_k - width_k, 0).
SymbolicExpr distinct_inclusion_exclusion(size_t n,
                                          const std::vector<OverlapClass>& classes) {
  SymbolicExpr out(n);
  for (const OverlapClass& cls : classes) {
    const size_t m = cls.shifts.size();
    for (size_t mask = 1; mask < (size_t{1} << m); ++mask) {
      std::vector<Int> width(n, 0);
      std::vector<Int> lo, hi;
      int members = 0;
      for (size_t i = 0; i < m; ++i) {
        if (!(mask & (size_t{1} << i))) continue;
        const IntVec& s = cls.shifts[i];
        if (members == 0) {
          lo.assign(n, 0);
          hi.assign(n, 0);
          for (size_t k = 0; k < n; ++k) lo[k] = hi[k] = s[k];
        } else {
          for (size_t k = 0; k < n; ++k) {
            lo[k] = std::min(lo[k], s[k]);
            hi[k] = std::max(hi[k], s[k]);
          }
        }
        ++members;
      }
      for (size_t k = 0; k < n; ++k) width[k] = checked_sub(hi[k], lo[k]);
      out += SymbolicExpr::clamped_product(width, members % 2 == 1 ? 1 : -1);
    }
  }
  return out;
}

SymbolicWindow chain_window_under_plan(const IntVec& d, size_t vars,
                                       const WindowPlan& plan) {
  if (plan.t == nullptr) return symbolic_chain_window(d, vars, plan.axes);
  return symbolic_chain_window(*plan.t * d, vars, plan.axes);
}

SymbolicArrayResult derive_array(const LoopNest& nest, ArrayId id,
                                 const WindowPlan& plan) {
  const size_t n = nest.depth();
  SymbolicArrayResult out;
  out.id = id;
  out.name = nest.array(id).name;
  const std::vector<ArrayRef>& refs = nest.refs_to(id);
  out.ref_count = static_cast<Int>(refs.size());

  for (const ArrayRef& r : refs) {
    if (!r.uniformly_generated_with(refs.front())) {
      out.notes.push_back("references are not uniformly generated");
      return out;
    }
  }
  const IntMat& access = refs.front().access;

  // Duplicate offsets touch the same element at the same iteration; they
  // add accesses (hence reuse) but change neither the distinct set nor the
  // per-iteration liveness picture.
  std::vector<IntVec> offsets;
  for (const ArrayRef& r : refs) {
    if (std::find(offsets.begin(), offsets.end(), r.offset) == offsets.end()) {
      offsets.push_back(r.offset);
    }
  }

  const std::vector<IntVec> kernel = integer_kernel_basis(access);

  if (kernel.empty()) {
    // Injective access: every element is touched by at most one iteration
    // per reference.
    std::vector<OverlapClass> classes = overlap_classes(access, offsets);
    if (offsets.size() <= kMaxSymbolicRefs) {
      SymbolicExpr distinct = distinct_inclusion_exclusion(n, classes);
      out.reuse = full_volume(n, out.ref_count) - distinct;
      out.distinct = std::move(distinct);
    } else {
      out.notes.push_back("more than " + std::to_string(kMaxSymbolicRefs) +
                          " distinct references (inclusion-exclusion declined)");
    }

    std::vector<IntVec> pair_distances;
    for (const OverlapClass& cls : classes) {
      if (cls.shifts.size() < 2) continue;
      IntVec anchor = cls.shifts.front();
      for (const IntVec& s : cls.shifts) {
        if (anchor.lex_less(s)) anchor = s;
      }
      for (const IntVec& s : cls.shifts) {
        if (s == anchor) continue;
        IntVec d = anchor - s;
        out.dependences.push_back({d, reuse_volume_expr(d)});
        pair_distances.push_back(d);
      }
    }

    // Window: elements of a size-2 class live exactly from their first to
    // their second touch, a single chain of length one; singleton classes
    // never stay live across iterations.  Three or more overlapping refs
    // (or several reusing pairs) produce piecewise first/last-touch
    // regions with no product form.
    if (pair_distances.empty()) {
      out.window = SymbolicWindow::zero(n);
    } else if (pair_distances.size() == 1 &&
               std::all_of(classes.begin(), classes.end(),
                           [](const OverlapClass& c) { return c.shifts.size() <= 2; })) {
      if (plan.exact) {
        out.window = chain_window_under_plan(pair_distances.front(), n, plan);
      } else {
        out.notes.push_back("window under a non-permutation plan (estimate only)");
      }
    } else {
      out.notes.push_back("overlapping reuse from " +
                          std::to_string(pair_distances.size()) +
                          " reference pairs (window declined)");
    }
  } else if (kernel.size() == 1) {
    const IntVec g = lex_abs(kernel.front());
    out.dependences.push_back({g, reuse_volume_expr(g)});
    if (offsets.size() == 1) {
      // Section 3.2: every element's touches form one chain along g.
      SymbolicExpr distinct = full_volume(n, 1) - reuse_volume_expr(g);
      out.reuse = full_volume(n, out.ref_count) - distinct;
      out.distinct = std::move(distinct);
      if (plan.exact) {
        out.window = chain_window_under_plan(g, n, plan);
      } else {
        out.notes.push_back("window under a non-permutation plan (estimate only)");
      }
    } else {
      out.notes.push_back(
          "multiple offsets reuse along a nontrivial kernel "
          "(Frobenius-like overlap; no closed form)");
    }
  } else {
    out.notes.push_back("kernel dimension " + std::to_string(kernel.size()) +
                        " >= 2 (reuse spans a lattice; no closed form)");
  }
  return out;
}

SymbolicResult analyze_under_plan(const LoopNest& nest, const WindowPlan& plan) {
  const size_t n = nest.depth();
  SymbolicResult res;
  res.vars = n;
  for (size_t k = 0; k < n; ++k) res.bound_names.push_back("N" + std::to_string(k + 1));
  for (size_t k = 0; k < n; ++k) res.bound_values.push_back(nest.bounds().range(k).trip_count());

  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    res.arrays.push_back(derive_array(nest, id, plan));
  }

  // Totals.  Distinct/reuse sum over arrays (element sets are disjoint).
  bool all_distinct = !res.arrays.empty();
  for (const SymbolicArrayResult& a : res.arrays) {
    if (!a.distinct) all_distinct = false;
  }
  if (all_distinct) {
    SymbolicExpr dist(n), reuse(n);
    for (const SymbolicArrayResult& a : res.arrays) {
      dist += *a.distinct;
      reuse += *a.reuse;
    }
    res.distinct_total = std::move(dist);
    res.reuse_total = std::move(reuse);
  }
  // The oracle's combined window maximizes the SUM of live counts over
  // time, which equals the per-array form only when at most one array is
  // ever live.
  size_t live_arrays = 0;
  bool all_windows = !res.arrays.empty();
  const SymbolicWindow* only = nullptr;
  for (const SymbolicArrayResult& a : res.arrays) {
    if (!a.window) {
      all_windows = false;
    } else if (!a.window->is_zero()) {
      ++live_arrays;
      only = &*a.window;
    }
  }
  if (all_windows && live_arrays <= 1) {
    res.window_total = only ? *only : SymbolicWindow::zero(n);
  }

  DiagnosticEngine diags;
  for (const SymbolicArrayResult& a : res.arrays) {
    for (const std::string& note : a.notes) {
      diags.note("LMRE-N018", "array '" + a.name + "': " + note +
                                  "; the trace oracle remains exact here");
    }
  }
  if (!res.usable()) {
    std::string why = res.arrays.empty() ? "the nest references no arrays"
                                         : "no supported regime applies";
    diags.error("LMRE-E017",
                "symbolic analysis declined: " + why +
                    " (no closed form is emitted rather than a wrong one)");
  }
  res.diagnostics = diags.take();
  return res;
}

}  // namespace

bool SymbolicResult::usable() const {
  for (const SymbolicArrayResult& a : arrays) {
    if (a.distinct || a.window) return true;
  }
  return false;
}

SymbolicWindow symbolic_chain_window(const IntVec& d, size_t vars) {
  return symbolic_chain_window(d, vars, identity_axes(d.size()));
}

SymbolicWindow symbolic_chain_window(const IntVec& d, size_t vars,
                                     const std::vector<size_t>& axes) {
  const size_t n = d.size();
  if (axes.size() != n) throw InvalidArgument("symbolic_chain_window: axes size mismatch");
  if (d.is_zero()) return SymbolicWindow::zero(vars);
  const IntVec dd = lex_abs(d);

  auto factor = [&](size_t j) {
    return SymbolicFactor{axes[j], checked_abs(dd[j]), false};
  };

  // The chain of positive components: consume the leading positive entry
  // of each remaining suffix while that suffix stays lex-positive.
  std::vector<size_t> chain;
  size_t p = dd.first_nonzero();
  while (true) {
    chain.push_back(p);
    size_t q = p + 1;
    while (q < n && dd[q] == 0) ++q;
    if (q == n || dd[q] < 0) break;
    p = q;
  }

  SymbolicWindow win = SymbolicWindow::zero(vars);
  bool first = true;
  for (size_t i = 0; i <= chain.size(); ++i) {
    SymbolicExpr branch(vars);
    for (size_t t = 0; t < i; ++t) {
      std::vector<SymbolicFactor> fs;
      for (size_t j = chain[t] + 1; j < n; ++j) fs.push_back(factor(j));
      branch.add_term(dd[chain[t]], std::move(fs));
    }
    if (i < chain.size()) {
      // Cap: the whole tail volume from this chain position on -- the
      // window cannot see past the box once d_k >= the remaining extent.
      std::vector<SymbolicFactor> fs;
      for (size_t j = chain[i]; j < n; ++j) fs.push_back(factor(j));
      branch.add_term(1, std::move(fs));
    }
    if (first) {
      win = SymbolicWindow(std::move(branch));
      first = false;
    } else {
      win.add_branch(std::move(branch));
    }
  }
  return win;
}

SymbolicResult symbolic_analysis(const LoopNest& nest) {
  WindowPlan plan;
  plan.axes = identity_axes(nest.depth());
  return analyze_under_plan(nest, plan);
}

SymbolicResult symbolic_analysis_transformed(const LoopNest& nest, const IntMat& t) {
  const size_t n = nest.depth();
  if (t.rows() != n || t.cols() != n || !t.is_unimodular()) {
    throw InvalidArgument("symbolic_analysis_transformed: plan must be a "
                          "unimodular n x n matrix");
  }
  WindowPlan plan;
  if (is_signed_permutation(t)) {
    plan.t = &t;
    plan.axes.assign(n, 0);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        if (t(r, c) != 0) plan.axes[r] = c;
      }
    }
  } else {
    plan.exact = false;
    plan.axes = identity_axes(n);
  }
  SymbolicResult res = analyze_under_plan(nest, plan);
  res.plan = t;

  if (!plan.exact && n == 2) {
    // The paper's eq. (2) estimate for 2-deep uniformly generated 1-d
    // array references under first row (a, b).
    for (const SymbolicArrayResult& a : res.arrays) {
      const std::vector<ArrayRef>& refs = nest.refs_to(a.id);
      if (refs.empty() || refs.front().access.rows() != 1) continue;
      bool uniform = true;
      for (const ArrayRef& r : refs) {
        uniform = uniform && r.uniformly_generated_with(refs.front());
      }
      if (!uniform) continue;
      const IntVec alpha = refs.front().access.row(0);
      const Int ta = t(0, 0), tb = t(0, 1);
      if (ta == 0 && tb == 0) continue;
      const Int w = checked_abs(
          checked_sub(checked_mul(alpha[1], ta), checked_mul(alpha[0], tb)));
      const Rational est = mws2_estimate(alpha, nest.bounds(), ta, tb);
      std::ostringstream os;
      os << "(min(";
      bool wrote = false;
      if (tb != 0) {
        os << "(N1 - 1)/" << checked_abs(tb);
        wrote = true;
      }
      if (ta != 0) {
        if (wrote) os << ", ";
        os << "(N2 - 1)/" << checked_abs(ta);
      }
      os << ") + 1) * " << w << " = " << est.str() << " (estimate)";
      res.window_estimate = os.str();
      break;
    }
  }
  return res;
}

namespace {

// A formula's interior polynomial and its value at the nest's bounds.
struct Evaluated {
  Poly interior;
  Int value = 0;
};

template <typename Formula>
Evaluated evaluate(const Formula& f, const std::vector<Int>& at) {
  Poly interior = f.interior();
  return Evaluated{std::move(interior), f.eval(at)};
}

template <typename Formula>
std::optional<Evaluated> evaluate(const std::optional<Formula>& f,
                                  const std::vector<Int>& at) {
  if (!f) return std::nullopt;
  return evaluate(*f, at);
}

// {"branches": [...] (windows only), "polynomial", "rendered", "terms",
// "value"}; terms lists the interior polynomial's {coef, exps} pairs.
void formula_json(JsonWriter& w, const Evaluated& e, const std::string& rendered,
                  const SymbolicWindow* window = nullptr) {
  w.begin_object();
  if (window) {
    w.key("branches").begin_array();
    for (const SymbolicExpr& b : window->branches()) w.value(b.str());
    w.end_array();
  }
  w.field("polynomial", e.interior.str()).field("rendered", rendered);
  w.key("terms").begin_array();
  for (const PolyTerm& t : e.interior.terms()) {
    w.begin_object().field("coef", t.coef).key("exps").int_array(t.exps).end_object();
  }
  w.end_array().field("value", e.value).end_object();
}

}  // namespace

void symbolic_json(JsonWriter& w, const SymbolicResult& r) {
  const std::vector<Int>& at = r.bound_values;
  w.begin_object().key("arrays").begin_array();
  for (const SymbolicArrayResult& a : r.arrays) {
    // An array's formulas are evaluated before its dependence volumes,
    // which sort first: an overflow fails the document at the first
    // formula in evaluation order (distinct, reuse, window, volumes, then
    // the totals), whatever the key order.
    const std::optional<Evaluated> distinct = evaluate(a.distinct, at);
    const std::optional<Evaluated> reuse = evaluate(a.reuse, at);
    const std::optional<Evaluated> window = evaluate(a.window, at);
    w.begin_object().key("dependences").begin_array();
    for (const SymbolicDependence& d : a.dependences) {
      w.begin_object().key("distance").int_array(d.distance).key("volume");
      formula_json(w, evaluate(d.volume, at), d.volume.str());
      w.end_object();
    }
    w.end_array();
    if (distinct) formula_json(w.key("distinct"), *distinct, a.distinct->str());
    w.field("name", a.name);
    if (!a.notes.empty()) {
      w.key("notes").begin_array();
      for (const std::string& note : a.notes) w.value(note);
      w.end_array();
    }
    w.field("refs", a.ref_count);
    if (reuse) formula_json(w.key("reuse"), *reuse, a.reuse->str());
    if (window) formula_json(w.key("window"), *window, a.window->str(), &*a.window);
    w.end_object();
  }
  w.end_array().key("bounds").begin_array();
  for (size_t k = 0; k < r.vars; ++k) {
    w.begin_object()
        .field("name", r.bound_names[k])
        .field("value", r.bound_values[k])
        .end_object();
  }
  w.end_array().key("diagnostics").begin_array();
  for (const Diagnostic& d : r.diagnostics) {
    w.begin_object()
        .field("id", d.id)
        .field("message", d.message)
        .field("severity", to_string(d.severity))
        .end_object();
  }
  w.end_array();
  if (r.distinct_total) {
    formula_json(w.key("distinct_total"), evaluate(*r.distinct_total, at),
                 r.distinct_total->str());
  }
  if (r.plan) w.key("plan").matrix(*r.plan);
  if (r.reuse_total) {
    formula_json(w.key("reuse_total"), evaluate(*r.reuse_total, at),
                 r.reuse_total->str());
  }
  w.field("usable", r.usable());
  if (r.window_estimate) w.field("window_estimate", *r.window_estimate);
  if (r.window_total) {
    formula_json(w.key("window_total"), evaluate(*r.window_total, at),
                 r.window_total->str(), &*r.window_total);
  }
  w.end_object();
}

}  // namespace lmre
