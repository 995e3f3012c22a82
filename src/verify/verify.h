#pragma once

// The dependence-preservation prover behind `lmre verify`.
//
// A transform plan -- a sequence of unimodular steps, optionally followed by
// rectangular tiling of the transformed space -- is *certified* when every
// memory dependence of the nest provably keeps its execution order.  The
// engine derives the dependence set itself (distance vectors where the
// references are uniformly generated, direction vectors otherwise, Section
// 2.1/4.2), then settles legality EXACTLY with Fourier-Motzkin searches over
// the dependence instances (search.h): a verdict is either a lex-positivity
// proof term, a concrete violation witness (an iteration pair whose order
// the plan reverses), or -- only when a search exceeds its step budget --
// withheld, which callers must treat as "not certified".
//
// Beyond legality the engine classifies every loop level of the original and
// transformed nest as DOALL-parallel or dependence-carrying, and decides
// whether a wavefront schedule (outer loop sequential, inner loops parallel)
// is race-free.  The whole result serializes to a machine-checkable JSON
// certificate (certificate.h) that a small independent checker re-validates
// with elementary arithmetic only (checker.h).

#include <optional>
#include <string>
#include <vector>

#include "dependence/dependence.h"
#include "dependence/directions.h"
#include "diag/diagnostic.h"
#include "ir/nest.h"
#include "linalg/mat.h"

namespace lmre {

/// A transform plan: unimodular steps applied in order (iteration I runs
/// through steps[0] first), optionally followed by rectangular tiling of
/// the transformed axes.
struct VerifyPlan {
  std::vector<IntMat> steps;
  std::vector<Int> tile_sizes;  ///< empty = no tiling step

  bool has_tiling() const { return !tile_sizes.empty(); }

  /// Combined matrix steps[k-1] * ... * steps[0] (identity when empty).
  IntMat combined(size_t n) const;

  /// "[1 0; 1 1] | tile:4,4"-style rendering for messages and envelopes.
  std::string str() const;
};

/// Parses one matrix of a plan spec: rows ';'-separated, entries
/// space/comma-separated, optionally bracketed ("[0 1; 1 0]").  Returns
/// nullopt on malformed input with a description in `error` (when
/// non-null).
std::optional<IntMat> parse_matrix_chunk(const std::string& chunk,
                                         std::string* error = nullptr);

/// Parses a plan spec: '|'-separated chunks, each either a matrix (rows
/// ';'-separated, entries space/comma-separated, e.g. "0 1; 1 0") or a
/// final "tile:4,4" chunk.  Returns nullopt on malformed input with a
/// description in `error` (when non-null).
std::optional<VerifyPlan> parse_plan_spec(const std::string& spec,
                                          std::string* error = nullptr);

/// Granularity at which a dependence is represented: exact constant
/// distance (uniformly generated pair) or a direction vector (the
/// conservative summary for non-uniform pairs).
enum class DepBasis { kDistance, kDirection };

enum class DepStatus { kPreserved, kReversed, kUnproven };

/// How a "preserved" verdict was established.
enum class ProofKind {
  kNone,       ///< not applicable (e.g. input dependence, reversed verdict)
  kPivot,      ///< transformed distance lex-positive at a concrete pivot level
  kCone,       ///< direction-vector cone forces lex-positivity (approximate basis)
  kExhaustive  ///< complete Fourier-Motzkin search found no violating pair
};

/// A concrete iteration pair sharing one array element, source first in the
/// original order.  For a reversal witness the plan schedules dst_time
/// before src_time; a `tiled` witness reverses under the tiled execution
/// order instead of the plain transformed order.
struct IterationWitness {
  IntVec src_iter;  ///< original-space iteration of the source reference
  IntVec dst_iter;  ///< original-space iteration of the destination
  IntVec element;   ///< shared array element index
  IntVec src_time;  ///< combined * src_iter
  IntVec dst_time;  ///< combined * dst_iter
  bool tiled = false;
};

/// Verdict for one dependence edge.
struct DepVerdict {
  size_t src_ref = 0;  ///< index into nest.all_refs(), source executes first
  size_t dst_ref = 0;
  ArrayId array = 0;
  DepKind kind = DepKind::kFlow;
  DepBasis basis = DepBasis::kDistance;
  IntVec distance;              ///< kDistance: the constant distance vector
  std::vector<Dir> directions;  ///< kDirection: source-first direction vector
  IntVec transformed;           ///< combined * distance (kDistance only)
  DepStatus status = DepStatus::kPreserved;
  ProofKind proof = ProofKind::kNone;
  int proof_level = 0;  ///< 1-based pivot level of the transformed distance
  std::optional<IterationWitness> witness;  ///< set when status == kReversed

  /// Tiling legality of this edge: every transformed component provably
  /// non-negative (Irigoin/Triolet).  `negative_component` is the 1-based
  /// offending row when not tileable; `tile_witness` a pair realizing it.
  bool tileable = true;
  int negative_component = 0;
  std::optional<IterationWitness> tile_witness;
};

/// DOALL classification of one loop level.
struct LevelClass {
  int level = 1;      ///< 1-based
  bool doall = false; ///< no memory dependence carried at this level
  bool exact = true;  ///< false when a budget-capped search forced "carried"
  std::vector<Int> carriers;  ///< indices into verdicts carried here
};

struct VerifyOptions {
  /// Step budget per Fourier-Motzkin witness search branch; an exhausted
  /// budget downgrades the affected verdict to kUnproven (never to legal).
  /// A uniform pair is searched in its kernel coordinates t (d = p + H t),
  /// so its steps count values of t; a non-uniform pair's count values of
  /// the iteration pair (I, J).
  Int search_budget = 200'000;

  /// Iteration-count cap for replaying a not-tileable witness pair through
  /// the concrete tiled order to upgrade it into an order-reversal witness.
  Int tiled_replay_limit = 20'000;

  /// The nest's dependence analysis (analyze_dependences(nest)) when the
  /// caller already has it -- a request that searched for the plan proves
  /// it over the same analysis; null: the prover analyzes the nest itself.
  const DependenceInfo* deps = nullptr;
};

struct VerifyResult {
  VerifyPlan plan;
  IntMat combined;  ///< n x n product of the unimodular steps

  /// Non-empty when the plan is structurally unusable (dimension mismatch,
  /// non-unimodular step, bad tile sizes); nothing else is computed then.
  std::string structure_error;

  bool legal = false;      ///< every memory dependence provably preserved
  bool tileable = false;   ///< full set (incl. input) component-wise non-negative
  bool certified = false;  ///< legal, and tileable when the plan tiles
  bool exact = true;       ///< no search hit its budget anywhere
  bool direction_only = false;  ///< some verdict rests on direction granularity

  std::vector<DepVerdict> verdicts;
  std::vector<LevelClass> original_levels;     ///< identity schedule
  std::vector<LevelClass> transformed_levels;  ///< under the combined plan

  /// All memory dependences carried by the outermost transformed loop:
  /// a wavefront schedule's inner parallel levels are race-free.
  bool wavefront_race_free = false;

  size_t memory_deps = 0;  ///< memory-kind verdict count (flow/anti/output)
  size_t total_deps = 0;   ///< all verdicts including input reuse
};

/// Proves or refutes dependence preservation of `plan` over the nest's
/// dependence set (opts.deps, or re-derived here).  Never throws on analyzable input; overflow
/// or unbounded-search conditions surface as kUnproven verdicts.
VerifyResult verify_plan(const LoopNest& nest, const VerifyPlan& plan,
                         const VerifyOptions& opts = {});

/// Maps an engine result onto the stable diagnostic IDs: LMRE-E013
/// (structure errors, illegal or uncertifiable plans -- the legacy summary
/// id), LMRE-E019 (dependence reversal with a concrete witness), LMRE-W014
/// (legal but untileable, when the plan itself does not tile), LMRE-W020
/// (direction-vector-only granularity), LMRE-N016 (certified), and -- when
/// `parallel_notes` -- LMRE-N021 (DOALL levels) and LMRE-N022 (wavefront
/// race-free).  `origin` prefixes messages ("supplied plan", "optimize
/// plan (method 'x')").
void emit_verify_diagnostics(const LoopNest& nest, const VerifyResult& res,
                             const std::string& origin, bool parallel_notes,
                             DiagnosticEngine& out);

}  // namespace lmre
