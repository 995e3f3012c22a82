#include "transform/minimizer.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "analysis/distinct.h"
#include "analysis/window.h"
#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "dependence/dependence.h"
#include "linalg/completion.h"
#include "linalg/diophantine.h"
#include "support/error.h"
#include "support/parallel_for.h"
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
    std::vector<ArrayRef> refs = nest.refs_to(id);
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

// A chunk-local incumbent: the first strictly-best completing row the chunk
// saw, in serial enumeration order.
struct LocalBest {
  bool valid = false;
  Rational score;
  Int w = 0;
  IntMat t;
};

// Lock-free shared pruning bound: the ceiling of the best completed primary
// objective seen by any worker.  Rows strictly above the bound can never win
// (the winner is minimal); ties and near-ties survive, and the ordered merge
// of chunk-local incumbents resolves them to the serial winner.
class IncumbentBound {
 public:
  Int load() const { return v_.load(std::memory_order_relaxed); }
  void lower_to(Int key) {
    Int cur = v_.load(std::memory_order_relaxed);
    while (key < cur &&
           !v_.compare_exchange_weak(cur, key, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<Int> v_{std::numeric_limits<Int>::max()};
};

// Branch-and-bound over rows ordered by w = |a2 a - a1 b|.  Rows with equal
// w lie on a line parallel to the kernel direction (a1, a2); enumerate w
// ascending and prune when w alone (a lower bound on (span+1) * w) reaches
// the best complete objective.  Within a (w, sign) shell segment the t-sweep
// is scored on the worker pool; chunk-local incumbents merge in chunk order,
// so the result is bit-identical to the serial sweep for any thread count.
std::optional<MinimizerResult> branch_and_bound(const IntVec& alpha,
                                                const std::vector<IntVec>& deps,
                                                const IntBox& box,
                                                const MinimizerOptions& opts) {
  const Int a1 = alpha[0], a2 = alpha[1];
  const Int range = opts.coeff_bound * (checked_abs(a1) + checked_abs(a2) + 1);
  const int workers = resolve_threads(opts.threads);
  const Int span = 2 * opts.coeff_bound + 1;

  std::optional<MinimizerResult> best;
  Int examined = 0;
  IncumbentBound bound;
  for (Int w = 0; w <= range; ++w) {
    if (best && Rational(w) >= best->predicted_mws) break;  // prune: obj >= w
    for (Int sign : {1, -1}) {
      if (w == 0 && sign < 0) continue;
      // a2*a - a1*b == sign*w; solutions move along the kernel (a1, a2).
      auto sol = solve_linear2(a2, -a1, sign * w);
      if (!sol) continue;
      std::vector<LocalBest> chunk_best(static_cast<size_t>(workers));
      std::vector<Int> chunk_examined(static_cast<size_t>(workers), 0);
      parallel_chunks(span, opts.threads, /*grain=*/64,
                      [&](size_t chunk, Int begin, Int end) {
        LocalBest local;
        Int counted = 0;
        for (Int idx = begin; idx < end; ++idx) {
          Int t = idx - opts.coeff_bound;
          Int a = sol->first + t * a1;
          Int b = sol->second + t * a2;
          if (a == 0 && b == 0) continue;
          if (checked_abs(a) > range || checked_abs(b) > range) continue;
          if (gcd(a, b) != 1) continue;
          if (!row_feasible(a, b, deps)) continue;
          ++counted;
          Rational score = mws2_estimate(alpha, box, a, b);
          if (best && score >= best->predicted_mws) continue;
          if (score > Rational(bound.load())) continue;
          if (local.valid && score >= local.score) continue;
          auto complete = complete_second_row(a, b, deps);
          if (!complete) continue;
          local = LocalBest{true, score, 0, *complete};
          bound.lower_to(score.ceil());
        }
        chunk_best[chunk] = std::move(local);
        chunk_examined[chunk] = counted;
      });
      for (size_t c = 0; c < chunk_best.size(); ++c) {
        examined = checked_add(examined, chunk_examined[c]);
        const LocalBest& l = chunk_best[c];
        if (!l.valid) continue;
        if (best && l.score >= best->predicted_mws) continue;
        best = MinimizerResult{l.t, l.score, examined};
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
  // Strict "strictly better than the incumbent" predicate of the serial
  // scan; both strategies are lexicographic strict weak orders, so the
  // serial winner is the first minimal row in enumeration order.
  auto better = [&](const Candidate& x, const Candidate& inc) {
    if (greedy) return x.w < inc.w || (x.w == inc.w && x.score < inc.score);
    return x.score < inc.score || (x.score == inc.score && x.w < inc.w);
  };

  // The (a, b) grid flattened in the serial enumeration order (a-major,
  // both ascending) and split into contiguous chunks: each chunk keeps its
  // first minimal completing row, the merge scans chunks left to right.
  const Int side = 2 * opts.coeff_bound + 1;
  const Int total = checked_mul(side, side);
  const int workers = resolve_threads(opts.threads);
  std::vector<std::optional<Candidate>> chunk_best(static_cast<size_t>(workers));
  std::vector<Int> chunk_examined(static_cast<size_t>(workers), 0);
  IncumbentBound bound;  // ceil(best score) (exhaustive) or best w (greedy)

  parallel_chunks(total, opts.threads, /*grain=*/64,
                  [&](size_t chunk, Int begin, Int end) {
    std::optional<Candidate> local;
    Int counted = 0;
    for (Int idx = begin; idx < end; ++idx) {
      Int a = idx / side - opts.coeff_bound;
      Int b = idx % side - opts.coeff_bound;
      if (a == 0 && b == 0) continue;
      if (gcd(a, b) != 1) continue;  // rows of a unimodular matrix are primitive
      if (!row_feasible(a, b, deps)) continue;
      ++counted;
      Rational score = row_objective(targets, box, a, b);
      Int w = 0;
      for (const auto& t : targets) {
        w = checked_add(w, checked_abs(checked_sub(checked_mul(t.alpha[1], a),
                                                   checked_mul(t.alpha[0], b))));
      }
      Candidate cand{a, b, score, w};
      // Shared bound: rows strictly above the best completed primary key
      // anywhere can never be the global winner (ties survive and are
      // resolved by the ordered merge).
      if (greedy ? w > bound.load() : score > Rational(bound.load())) continue;
      if (local && !better(cand, *local)) continue;
      // Only accept rows that actually complete to a tileable matrix.
      if (!complete_second_row(a, b, deps)) continue;
      local = cand;
      bound.lower_to(greedy ? w : score.ceil());
    }
    chunk_best[chunk] = local;
    chunk_examined[chunk] = counted;
  });

  Int examined = 0;
  std::optional<Candidate> best;
  for (size_t c = 0; c < chunk_best.size(); ++c) {
    examined = checked_add(examined, chunk_examined[c]);
    if (chunk_best[c] && (!best || better(*chunk_best[c], *best))) {
      best = chunk_best[c];
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
  std::vector<ArrayRef> refs = nest.refs_to(array);
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

namespace {

// Transformed-space extents: exact for signed permutations, bounding box
// otherwise.
IntBox transformed_box(const IntBox& box, const IntMat& t) {
  const size_t n = box.dims();
  std::vector<Range> ranges(n);
  for (size_t r = 0; r < n; ++r) {
    // u_r = sum_c t(r,c) * i_c; interval arithmetic over the box.
    Int lo = 0, hi = 0;
    for (size_t c = 0; c < n; ++c) {
      Int a = t(r, c);
      if (a >= 0) {
        lo = checked_add(lo, checked_mul(a, box.range(c).lo));
        hi = checked_add(hi, checked_mul(a, box.range(c).hi));
      } else {
        lo = checked_add(lo, checked_mul(a, box.range(c).hi));
        hi = checked_add(hi, checked_mul(a, box.range(c).lo));
      }
    }
    ranges[r] = Range{lo, hi};
  }
  return IntBox(std::move(ranges));
}

}  // namespace

Int transformed_scan_volume(const LoopNest& nest, const IntMat& t) {
  return transformed_box(nest.bounds(), t).volume();
}

Int predicted_mws_after(const LoopNest& nest, const IntMat& t) {
  return predicted_mws_after(nest, analyze_dependences(nest), t);
}

Int predicted_mws_after(const LoopNest& nest, const DependenceInfo& info,
                        const IntMat& t) {
  const std::vector<ArrayRef> refs = nest.all_refs();
  IntBox tbox = transformed_box(nest.bounds(), t);

  Int total = 0;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    std::vector<ArrayRef> arefs = nest.refs_to(id);
    if (arefs.empty()) continue;
    bool uniform = true;
    for (size_t i = 1; i < arefs.size(); ++i) {
      if (!arefs[i].uniformly_generated_with(arefs[0])) uniform = false;
    }
    if (!uniform) continue;  // constant under transformation; omit from score

    if (nest.depth() == 2 && nest.array(id).dims() == 1) {
      total = checked_add(total, mws2_estimate(arefs[0].access.row(0), nest.bounds(),
                                               t(0, 0), t(0, 1)).ceil());
      continue;
    }

    // Dominant transformed reuse vector, capped by the array's distinct
    // count (the window cannot exceed the elements ever touched).
    std::optional<IntVec> dom;
    for (const auto& dep : info.deps) {
      if (refs[dep.src_ref].array != id) continue;
      IntVec td = t * dep.distance;
      if (!td.lex_positive()) td = -td;
      if (!dom || dom->lex_less(td)) dom = td;
    }
    if (dom) {
      Int cap = estimate_distinct(nest, id).distinct;
      total = checked_add(total, std::min(mws_from_reuse_vector(*dom, tbox), cap));
    }
  }
  return total;
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
  DependenceInfo info = analyze_dependences(nest);
  std::vector<IntVec> memory = info.distance_vectors(/*include_input=*/false);

  std::vector<CandidatePlan> candidates;
  auto consider = [&](const IntMat& t, const std::string& method) {
    if (!is_legal(t, memory)) return;
    candidates.push_back(CandidatePlan{t, method, predicted_mws_after(nest, info, t)});
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
    // Re-scoring fans out across the pool in candidate order; every chunk
    // reuses one TraceArena across its candidates (chunk 0 gets the
    // caller's, so serial verify loops touch a single allocation
    // footprint), and the selection below is the serial scan.
    const int workers = resolve_threads(opts.threads);
    std::vector<TraceArena> extra(workers > 1 ? static_cast<size_t>(workers - 1)
                                              : 0);
    std::vector<Int> exact(unique.size(), 0);
    parallel_chunks(static_cast<Int>(unique.size()), opts.threads, /*grain=*/1,
                    [&](size_t chunk, Int begin, Int end) {
      TraceArena& chunk_arena = chunk == 0 ? arena : extra[chunk - 1];
      for (Int i = begin; i < end; ++i) {
        exact[static_cast<size_t>(i)] =
            simulate_transformed(nest, unique[static_cast<size_t>(i)]->t,
                                 chunk_arena)
                .mws_total;
      }
    });
    for (const TraceArena& e : extra) arena.stats().absorb(e.stats());
    const CandidatePlan* best = nullptr;
    Int best_exact = 0;
    for (size_t i = 0; i < unique.size(); ++i) {
      if (!best || exact[i] < best_exact) {
        best = unique[i];
        best_exact = exact[i];
      }
    }
    ensure(best != nullptr, "exact verification examined no candidate");
    return OptimizeResult{best->t, best->method, best->score};
  }

  return OptimizeResult{candidates.front().t, candidates.front().method,
                        candidates.front().score};
}

MinimizerOptions minimizer_options(const RunOptions& run) {
  MinimizerOptions opts;
  opts.threads = run.threads;
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
