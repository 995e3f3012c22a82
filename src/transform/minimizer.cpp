#include "transform/minimizer.h"

#include <algorithm>

#include "analysis/distinct.h"
#include "analysis/window.h"
#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "dependence/dependence.h"
#include "linalg/completion.h"
#include "linalg/diophantine.h"
#include "support/error.h"
#include "transform/unimodular.h"

namespace lmre {

namespace {

// 1-d arrays in a 2-deep nest whose references are uniformly generated:
// the targets of the eq.-(2) objective.
struct RowTarget {
  IntVec alpha;  ///< subscript coefficients (a1, a2)
};

std::vector<RowTarget> row_targets(const LoopNest& nest) {
  std::vector<RowTarget> targets;
  if (nest.depth() != 2) return targets;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    const std::vector<ArrayRef>& refs = nest.refs_to(id);
    if (refs.empty() || nest.array(id).dims() != 1) continue;
    bool uniform = true;
    for (size_t i = 1; i < refs.size(); ++i) {
      if (!refs[i].uniformly_generated_with(refs[0])) uniform = false;
    }
    if (!uniform) continue;
    targets.push_back(RowTarget{refs[0].access.row(0)});
  }
  return targets;
}

// Row feasibility for tiling:  (a, b) . d >= 0 for every distance.
bool row_feasible(Int a, Int b, const std::vector<IntVec>& deps) {
  for (const auto& d : deps) {
    if (checked_add(checked_mul(a, d[0]), checked_mul(b, d[1])) < 0) return false;
  }
  return true;
}

// Completes first row (a, b) to a unimodular T whose second row also
// satisfies the tiling constraints.  Tries both determinant signs and
// shifts the base completion by multiples of (a, b).
std::optional<IntMat> complete_second_row(Int a, Int b, const std::vector<IntVec>& deps) {
  Int x, y;
  Int g = extended_gcd(a, b, x, y);
  if (g != 1) return std::nullopt;
  // a*x + b*y == 1; (c, d) = (-y, x) gives det(a d - b c) == 1.
  for (const auto& base : {std::pair<Int, Int>{-y, x}, std::pair<Int, Int>{y, -x}}) {
    auto [c0, d0] = base;
    // Need (c0 + k a) d1 + (d0 + k b) d2 >= 0 for every dependence.
    bool feasible = true;
    Int k_min = 0;
    bool has_bound = false;
    for (const auto& dep : deps) {
      Int slope = checked_add(checked_mul(a, dep[0]), checked_mul(b, dep[1]));
      Int base_v = checked_add(checked_mul(c0, dep[0]), checked_mul(d0, dep[1]));
      if (slope == 0) {
        if (base_v < 0) { feasible = false; break; }
      } else {
        Int k = ceil_div(checked_neg(base_v), slope);  // slope > 0 by row feasibility
        if (!has_bound || k > k_min) k_min = k;
        has_bound = true;
      }
    }
    if (!feasible) continue;
    Int k = has_bound ? std::max<Int>(k_min, 0) : 0;
    IntMat t{{a, b}, {checked_add(c0, checked_mul(k, a)), checked_add(d0, checked_mul(k, b))}};
    ensure(t.is_unimodular(), "complete_second_row: completion not unimodular");
    if (is_tileable(t, deps)) return t;
  }
  return std::nullopt;
}

Rational row_objective(const std::vector<RowTarget>& targets, const IntBox& box,
                       Int a, Int b) {
  Rational total(0);
  for (const auto& t : targets) {
    total += mws2_estimate(t.alpha, box, a, b);
  }
  return total;
}

// Branch-and-bound over rows ordered by w = |a2 a - a1 b|.  Rows with equal
// w lie on a line parallel to the kernel direction (a1, a2); enumerate w
// ascending and prune when w alone (a lower bound on (span+1) * w) reaches
// the best complete objective.
std::optional<MinimizerResult> branch_and_bound(const IntVec& alpha,
                                                const std::vector<IntVec>& deps,
                                                const IntBox& box,
                                                const MinimizerOptions& opts) {
  const Int a1 = alpha[0], a2 = alpha[1];
  const Int range = opts.coeff_bound * (checked_abs(a1) + checked_abs(a2) + 1);

  std::optional<MinimizerResult> best;
  Int examined = 0;
  for (Int w = 0; w <= range; ++w) {
    if (best && Rational(w) >= best->predicted_mws) break;  // prune: obj >= w
    for (Int sign : {1, -1}) {
      if (w == 0 && sign < 0) continue;
      // a2*a - a1*b == sign*w; solutions move along the kernel (a1, a2).
      auto sol = solve_linear2(a2, -a1, sign * w);
      if (!sol) continue;
      for (Int t = -opts.coeff_bound; t <= opts.coeff_bound; ++t) {
        Int a = sol->first + t * a1;
        Int b = sol->second + t * a2;
        if (a == 0 && b == 0) continue;
        if (checked_abs(a) > range || checked_abs(b) > range) continue;
        if (gcd(a, b) != 1) continue;
        if (!row_feasible(a, b, deps)) continue;
        ++examined;
        Rational score = mws2_estimate(alpha, box, a, b);
        if (best && score >= best->predicted_mws) continue;
        auto complete = complete_second_row(a, b, deps);
        if (!complete) continue;
        best = MinimizerResult{*complete, score, 0};
      }
    }
  }
  if (best) best->candidates = examined;
  return best;
}

}  // namespace

std::optional<MinimizerResult> minimize_mws_2d(const LoopNest& nest,
                                               const MinimizerOptions& opts) {
  return minimize_mws_2d(nest, analyze_dependences(nest), opts);
}

std::optional<MinimizerResult> minimize_mws_2d(const LoopNest& nest,
                                               const DependenceInfo& info,
                                               const MinimizerOptions& opts) {
  if (nest.depth() != 2) return std::nullopt;
  std::vector<RowTarget> targets = row_targets(nest);
  if (targets.empty()) return std::nullopt;

  std::vector<IntVec> deps = info.distance_vectors(opts.include_input_reuse);
  const IntBox& box = nest.bounds();

  if (opts.strategy == MinimizerOptions::Strategy::kBranchAndBound &&
      targets.size() == 1) {
    return branch_and_bound(targets[0].alpha, deps, box, opts);
  }

  struct Candidate {
    Int a, b;
    Rational score;
    Int w;  // sum of |a2 a - a1 b| over targets (greedy objective)
  };
  const bool greedy = opts.strategy == MinimizerOptions::Strategy::kGreedyW;
  // Strictly better than the incumbent: both strategies are lexicographic
  // strict weak orders, so the winner is the first minimal row in
  // enumeration order (a-major, both ascending).
  auto better = [&](const Candidate& x, const Candidate& inc) {
    if (greedy) return x.w < inc.w || (x.w == inc.w && x.score < inc.score);
    return x.score < inc.score || (x.score == inc.score && x.w < inc.w);
  };

  Int examined = 0;
  std::optional<Candidate> best;
  for (Int a = -opts.coeff_bound; a <= opts.coeff_bound; ++a) {
    for (Int b = -opts.coeff_bound; b <= opts.coeff_bound; ++b) {
      if (a == 0 && b == 0) continue;
      if (gcd(a, b) != 1) continue;  // rows of a unimodular matrix are primitive
      if (!row_feasible(a, b, deps)) continue;
      ++examined;
      Rational score = row_objective(targets, box, a, b);
      Int w = 0;
      for (const auto& t : targets) {
        w = checked_add(w, checked_abs(checked_sub(checked_mul(t.alpha[1], a),
                                                   checked_mul(t.alpha[0], b))));
      }
      Candidate cand{a, b, score, w};
      if (best && !better(cand, *best)) continue;
      // Only accept rows that actually complete to a tileable matrix.
      if (!complete_second_row(a, b, deps)) continue;
      best = cand;
    }
  }
  if (!best) return std::nullopt;
  std::optional<IntMat> t = complete_second_row(best->a, best->b, deps);
  ensure(t.has_value(), "winning row lost its completion");
  return MinimizerResult{*t, best->score, examined};
}

std::optional<IntMat> embedding_transform(const LoopNest& nest, ArrayId array) {
  return embedding_transform(nest, analyze_dependences(nest), array);
}

std::optional<IntMat> embedding_transform(const LoopNest& nest,
                                          const DependenceInfo& info, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  if (refs.empty()) return std::nullopt;
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) return std::nullopt;
  }
  const IntMat& acc = refs[0].access;
  if (acc.rows() >= nest.depth()) return std::nullopt;  // nothing to gain
  std::optional<IntMat> t = complete_rows_to_unimodular(acc);
  if (!t) return std::nullopt;

  std::vector<IntVec> all = info.distance_vectors(/*include_input=*/true);
  std::vector<IntVec> memory = info.distance_vectors(/*include_input=*/false);

  // Fix trailing-row signs so every reuse vector moves forward; memory
  // dependences must stay lexicographically positive.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool ok = true;
    for (const auto& d : all) {
      IntVec td = (*t) * d;
      if (td.is_zero()) continue;
      if (!td.lex_positive()) { ok = false; break; }
    }
    if (ok && is_legal(*t, memory)) return t;
    if (attempt == 0) {
      // Negate the completion rows (keeps the access rows intact).
      for (size_t r = acc.rows(); r < t->rows(); ++r) {
        t->set_row(r, -t->row(r));
      }
    }
  }
  return std::nullopt;
}

Int transformed_scan_volume(const LoopNest& nest, const IntMat& t) {
  return nest.bounds().image_hull(t).volume();
}

Int predicted_mws_after(const LoopNest& nest, const IntMat& t) {
  return predicted_mws_after(nest, analyze_dependences(nest), t);
}

namespace {

// predicted_mws_after's per-array inputs, none of which depends on T: which
// arrays score (referenced, uniformly generated), each one's eq.-(2) row
// or reuse distances, and -- computed on first use, then kept -- its
// distinct-count cap.  One scorer serves every candidate of a search.
class MwsScorer {
 public:
  MwsScorer(const LoopNest& nest, const DependenceInfo& info) : nest_(nest) {
    const std::vector<ArrayRef>& refs = nest.all_refs();
    for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
      const std::vector<ArrayRef>& arefs = nest.refs_to(id);
      if (arefs.empty()) continue;
      bool uniform = true;
      for (size_t i = 1; i < arefs.size(); ++i) {
        if (!arefs[i].uniformly_generated_with(arefs[0])) uniform = false;
      }
      if (!uniform) continue;  // constant under transformation; omit from score
      Term term;
      term.id = id;
      term.row2 = nest.depth() == 2 && nest.array(id).dims() == 1;
      if (term.row2) {
        term.alpha = arefs[0].access.row(0);
      } else {
        for (const auto& dep : info.deps) {
          if (refs[dep.src_ref].array == id) term.distances.push_back(&dep.distance);
        }
      }
      terms_.push_back(std::move(term));
    }
  }

  Int score(const IntMat& t) {
    IntBox tbox = nest_.bounds().image_hull(t);
    Int total = 0;
    for (Term& term : terms_) {
      if (term.row2) {
        total = checked_add(total, mws2_estimate(term.alpha, nest_.bounds(),
                                                 t(0, 0), t(0, 1)).ceil());
        continue;
      }
      // Dominant transformed reuse vector, capped by the array's distinct
      // count (the window cannot exceed the elements ever touched).
      std::optional<IntVec> dom;
      for (const IntVec* d : term.distances) {
        IntVec td = t * *d;
        if (!td.lex_positive()) td = -td;
        if (!dom || dom->lex_less(td)) dom = td;
      }
      if (dom) {
        if (!term.cap) term.cap = estimate_distinct(nest_, term.id).distinct;
        total = checked_add(total,
                            std::min(mws_from_reuse_vector(*dom, tbox), *term.cap));
      }
    }
    return total;
  }

 private:
  struct Term {
    ArrayId id = 0;
    bool row2 = false;  ///< 1-d array in a 2-deep nest: eq. (2) over row 0
    IntVec alpha;       ///< its subscript row (row2)
    std::vector<const IntVec*> distances;  ///< its reuse distances (!row2)
    std::optional<Int> cap;                ///< its distinct count, once used
  };
  const LoopNest& nest_;
  std::vector<Term> terms_;
};

}  // namespace

Int predicted_mws_after(const LoopNest& nest, const DependenceInfo& info,
                        const IntMat& t) {
  return MwsScorer(nest, info).score(t);
}

OptimizeResult optimize_locality(const LoopNest& nest, const MinimizerOptions& opts) {
  TraceArena arena;
  return optimize_locality(nest, opts, arena);
}

std::vector<CandidatePlan> candidate_plans(const LoopNest& nest,
                                           const MinimizerOptions& opts) {
  const size_t n = nest.depth();
  // The dependences are a property of the nest, not of a candidate: one
  // analysis serves the legality filter, the scoring and both searches.
  std::optional<DependenceInfo> own;
  const DependenceInfo& info =
      opts.deps ? *opts.deps : own.emplace(analyze_dependences(nest));
  std::vector<IntVec> memory = info.distance_vectors(/*include_input=*/false);

  MwsScorer scorer(nest, info);
  std::vector<CandidatePlan> candidates;
  auto consider = [&](const IntMat& t, const std::string& method) {
    if (!is_legal(t, memory)) return;
    candidates.push_back(CandidatePlan{t, method, scorer.score(t)});
  };

  consider(IntMat::identity(n), "identity");

  // Signed permutations (loop permutation + per-loop reversal).
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  do {
    for (unsigned signs = 0; signs < (1u << n); ++signs) {
      IntMat t(n, n);
      for (size_t r = 0; r < n; ++r) {
        t(r, perm[r]) = (signs >> r) & 1 ? -1 : 1;
      }
      consider(t, "permutation");
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  if (auto res = minimize_mws_2d(nest, info, opts)) {
    consider(res->transform, "row-minimizer");
  }
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    if (auto t = embedding_transform(nest, info, id)) {
      consider(*t, "embedding(" + nest.array(id).name + ")");
    }
  }

  ensure(!candidates.empty(), "identity must always be a legal candidate");
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CandidatePlan& a, const CandidatePlan& b) {
                     return a.score < b.score;
                   });
  return candidates;
}

OptimizeResult optimize_locality(const LoopNest& nest,
                                 const MinimizerOptions& opts,
                                 TraceArena& arena) {
  std::vector<CandidatePlan> candidates = candidate_plans(nest, opts);
  const CandidatePlan* best = &candidates.front();
  OptimizeResult res;

  // The analytic score ranks depth-2 candidates well, but for deeper nests
  // (bounding-box extents, dominant-vector choice) it can misrank; rescore
  // the top few candidates with the exact oracle when the nest is small.
  if (opts.verify_top_k > 0 &&
      nest.iteration_count() <= opts.verify_iteration_limit) {
    size_t k = std::min<size_t>(candidates.size(),
                                static_cast<size_t>(opts.verify_top_k));
    // Always verify the identity too: the driver must never pick something
    // worse than leaving the nest alone.
    std::vector<const CandidatePlan*> to_verify;
    for (size_t i = 0; i < k; ++i) to_verify.push_back(&candidates[i]);
    for (const auto& c : candidates) {
      if (c.method == "identity") { to_verify.push_back(&c); break; }
    }
    // Dedup (keeping first occurrence) and drop candidates whose transformed
    // scan space blows past the verification budget: a skewing transform can
    // inflate the scanner's sweep far beyond the invariant iteration count,
    // so the limit must be checked per transformed candidate, not only once
    // against the original nest.  The identity always survives (its scan
    // volume is exactly the iteration count), so the set is never empty.
    std::vector<const CandidatePlan*> unique;
    std::vector<IntMat> seen;
    for (const CandidatePlan* c : to_verify) {
      if (std::find(seen.begin(), seen.end(), c->t) != seen.end()) continue;
      seen.push_back(c->t);
      if (transformed_scan_volume(nest, c->t) > opts.verify_iteration_limit) {
        continue;
      }
      unique.push_back(c);
    }
    // Every candidate reuses the caller's arena, so a verify loop touches
    // a single allocation footprint.
    const IntMat identity = IntMat::identity(nest.depth());
    best = nullptr;
    for (const CandidatePlan* c : unique) {
      const Int exact = simulate_transformed(nest, c->t, arena).mws_total;
      if (c->t == identity) res.mws_identity = exact;
      if (!best || exact < *res.mws_exact) {
        best = c;
        res.mws_exact = exact;
      }
    }
    ensure(best != nullptr, "exact verification examined no candidate");
  }
  res.transform = best->t;
  res.method = best->method;
  res.predicted_mws = best->score;
  return res;
}

MinimizerOptions minimizer_options(const RunOptions& run) {
  MinimizerOptions opts;
  opts.verify_iteration_limit = run.verify_limit;
  return opts;
}

std::optional<MinimizerResult> minimize_mws_2d(const LoopNest& nest,
                                               const RunOptions& run) {
  return minimize_mws_2d(nest, minimizer_options(run));
}

OptimizeResult optimize_locality(const LoopNest& nest, const RunOptions& run) {
  return optimize_locality(nest, minimizer_options(run));
}

}  // namespace lmre
