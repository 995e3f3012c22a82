#pragma once

// Search for legal, tileable unimodular transformations minimizing the
// maximum window size (Section 4.2 / 4.3).
//
// Depth-2 nests: enumerate candidate first rows (a, b) subject to the tiling
// legality constraints  a*d1 + b*d2 >= 0  for every dependence distance,
// score them with the eq. (2) window estimate, and complete the winner to a
// unimodular matrix whose second row also satisfies the constraints (via the
// extended Euclidean algorithm plus shifting by multiples of the first row).
//
// Deeper nests: the access-matrix embedding of Section 4.3 -- complete the
// data reference matrix to a unimodular T whose first rows are the access
// rows, so the reuse vector is carried by the innermost loop and the window
// collapses to O(1).

#include <optional>
#include <string>
#include <vector>

#include "ir/nest.h"
#include "linalg/rational.h"
#include "support/options.h"

namespace lmre {

class TraceArena;      // exact/trace_engine.h: reusable dense-engine storage
struct DependenceInfo;  // dependence/dependence.h: a nest's distance vectors

struct MinimizerOptions {
  /// Search bound on |a| and |b| for first-row enumeration.
  Int coeff_bound = 8;

  /// Use input (read-read) reuse vectors as constraints too, like the
  /// paper's examples do.
  bool include_input_reuse = true;

  /// kExhaustive scores every feasible row with eq. (2); kGreedyW follows
  /// the paper's cheaper alternative ("minimize |a2 a - a1 b|") and picks
  /// the feasible row with the smallest w, breaking ties by eq. (2);
  /// kBranchAndBound (the paper's named technique) enumerates rows in
  /// increasing w = |a2 a - a1 b| along the kernel direction and prunes as
  /// soon as w alone exceeds the best full objective found -- same optimum
  /// as kExhaustive, usually far fewer candidates.  Falls back to
  /// kExhaustive when the nest has several 1-d target arrays.
  enum class Strategy {
    kExhaustive,
    kGreedyW,
    kBranchAndBound
  } strategy = Strategy::kExhaustive;

  /// optimize_locality: rescore this many best-estimated candidates with the
  /// exact oracle before choosing (0 disables).  Only applies when the
  /// iteration count is at most verify_iteration_limit; candidates whose
  /// *transformed* scan space exceeds the limit (see
  /// transformed_scan_volume) are skipped individually.
  Int verify_top_k = 8;
  Int verify_iteration_limit = 2'000'000;

  /// The nest's dependence analysis (analyze_dependences(nest)) when the
  /// caller already has it, e.g. to hand the same analysis to the prover;
  /// null: candidate_plans analyzes the nest itself.
  const DependenceInfo* deps = nullptr;
};

struct MinimizerResult {
  IntMat transform;        ///< full unimodular T (first row = chosen (a,b))
  Rational predicted_mws;  ///< eq. (2) objective value of the chosen row
  Int candidates = 0;      ///< number of feasible rows examined
};

/// Minimizes the summed eq.-(2) window estimate of every 1-d uniformly
/// generated array in a 2-deep nest.  Returns nullopt when the nest is not
/// depth 2, no 1-d uniform array exists, or no feasible row completes.
std::optional<MinimizerResult> minimize_mws_2d(const LoopNest& nest,
                                               const MinimizerOptions& opts = {});

/// minimize_mws_2d over the nest's already-computed dependence analysis
/// (`info` must be analyze_dependences(nest)); the overload above analyzes
/// the nest itself.  The same holds for the other DependenceInfo overloads.
std::optional<MinimizerResult> minimize_mws_2d(const LoopNest& nest,
                                               const DependenceInfo& info,
                                               const MinimizerOptions& opts);

/// Section 4.3: unimodular T whose first rows equal the access matrix of
/// `array` (reuse carried innermost).  The last row's sign is fixed so the
/// transformed reuse vector is forward; returns nullopt when the access
/// rows are not extendable or the result is illegal for the nest's memory
/// dependences.
std::optional<IntMat> embedding_transform(const LoopNest& nest, ArrayId array);
std::optional<IntMat> embedding_transform(const LoopNest& nest,
                                          const DependenceInfo& info, ArrayId array);

/// Analytic prediction of the total MWS after applying `t` (sum over
/// arrays).  Permutation-like transforms use the permuted box; general
/// transforms fall back on bounding-box extents (an over-approximation).
Int predicted_mws_after(const LoopNest& nest, const IntMat& t);
Int predicted_mws_after(const LoopNest& nest, const DependenceInfo& info,
                        const IntMat& t);

/// Volume of the axis-aligned hull of t * bounds: the space the
/// Fourier-Motzkin scanner sweeps when simulating the transformed nest.  A
/// skewing transform can inflate this far beyond the (invariant) iteration
/// count, so verify_iteration_limit is checked against this per candidate
/// before oracle re-scoring.  Equals iteration_count() for signed
/// permutations (and the identity).
Int transformed_scan_volume(const LoopNest& nest, const IntMat& t);

struct OptimizeResult {
  IntMat transform;
  std::string method;  ///< "identity", "row-minimizer", "embedding(X)", "permutation"
  Int predicted_mws = 0;
  /// The exact MWS the oracle re-score measured for the identity order and
  /// for the chosen plan; empty when no re-score ran (verify_top_k == 0 or
  /// the nest past verify_iteration_limit).
  std::optional<Int> mws_identity;
  std::optional<Int> mws_exact;
};

/// One legal transformation from the enumeration, with its analytic score.
struct CandidatePlan {
  IntMat t;
  std::string method;  ///< same vocabulary as OptimizeResult::method
  Int score = 0;       ///< predicted_mws_after(nest, t)
};

/// The optimizer's candidate enumeration as a reusable product: identity,
/// signed permutations, the depth-2 row minimizer, and per-array
/// embeddings, legality-filtered against the memory dependences, scored by
/// predicted_mws_after, and stably sorted best-first.  The nest's
/// dependences (opts.deps, or analyzed here once) are shared by every
/// candidate.  The
/// identity is always present, so the result is never empty.
/// optimize_locality and the miss-ratio objective both re-score prefixes
/// of this list.
std::vector<CandidatePlan> candidate_plans(const LoopNest& nest,
                                           const MinimizerOptions& opts = {});

/// End-to-end driver: picks the best legal transformation among the
/// identity, legal loop permutations, the depth-2 row minimizer, and
/// per-array embeddings, scored by predicted_mws_after.
OptimizeResult optimize_locality(const LoopNest& nest, const MinimizerOptions& opts = {});

/// optimize_locality reusing the caller's TraceArena for the exact
/// verification loop: the k candidate simulations share (and grow) one
/// allocation footprint instead of rebuilding per candidate.  Results are
/// identical to the arena-free overload.
OptimizeResult optimize_locality(const LoopNest& nest,
                                 const MinimizerOptions& opts,
                                 TraceArena& arena);

/// Maps the shared pipeline options onto this stage's knobs:
/// verify_iteration_limit comes from `run`, everything else keeps its
/// default.  The RunOptions overloads below are the preferred entry points
/// for callers driving the whole pipeline (runtime/session.h).
MinimizerOptions minimizer_options(const RunOptions& run);

/// minimize_mws_2d under the shared RunOptions (see minimizer_options).
std::optional<MinimizerResult> minimize_mws_2d(const LoopNest& nest,
                                               const RunOptions& run);

/// optimize_locality under the shared RunOptions (see minimizer_options).
OptimizeResult optimize_locality(const LoopNest& nest, const RunOptions& run);

}  // namespace lmre
