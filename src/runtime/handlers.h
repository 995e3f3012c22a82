#pragma once

// The per-kind analysis handlers: the one pipeline behind every surface.
//
// Each request kind past lint is one free function over the parsed
// program.  It runs the kind's stages (estimate, exact window, transform
// search, certification, emission, miss-ratio curve) under the shared
// RunOptions, reuses the caller's TraceArena for every oracle run, times
// each stage into the caller's Metrics, and returns a typed outcome.
// AnalysisSession (batch, serve, and every CLI verb's --json) writes the
// outcome into its cached payload with the serializers below, each of
// which streams one JSON value through a JsonWriter (keys ascending); the CLI
// verbs render their text from the same outcome.  So the kind semantics --
// plan resolution and its certification gate, verify_limit gating, the
// uncertified-plan downgrade -- live here once.
//
// A handler throws Refusal when the request cannot be answered as asked
// (a single-nest kind on a multi-phase source, a malformed plan, a trace
// past verify_limit, an uncertified plan) and lets every other
// lmre::Error propagate.

#include <optional>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "codegen/codegen.h"
#include "codegen/driver.h"
#include "diag/diagnostic.h"
#include "mrc/mrc.h"
#include "program/program.h"
#include "runtime/metrics.h"
#include "runtime/session.h"
#include "support/json_writer.h"
#include "support/options.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "verify/verify.h"

namespace lmre {

/// A request the pipeline declines as asked.  code() is the payload's
/// error kind ("unsupported", "bad_plan", "too_large", "uncertified", ...)
/// and status() the exit status it carries; what() is the message.
class Refusal : public Error {
 public:
  Refusal(const char* code, ExitCode status, const std::string& message)
      : Error(message), code_(code), status_(status) {}
  const char* code() const { return code_; }
  ExitCode status() const { return status_; }

 private:
  const char* code_;
  ExitCode status_;
};

/// The source's only nest; Refusal("unsupported") naming `what` ("optimize
/// works on single-nest sources") when it has several phases.
const LoopNest& single_nest(const Program& program, const char* what);

/// What an empty plan spec means to a kind.
enum class DefaultPlan {
  kIdentity,   ///< codegen, mrc: "" = identity order, "auto" = optimizer's
  kOptimizer,  ///< verify: "" audits the optimizer's own plan
};

/// An execution plan named by a request, resolved against its nest.
struct ResolvedPlan {
  VerifyPlan plan;     ///< no steps = the identity order
  std::string origin;  ///< "identity plan", "supplied plan", "optimize plan (method 'M')"
  std::string method;  ///< the optimizer's method when it chose the plan
  /// The nest's dependences when the optimizer chose the plan (its search
  /// analyzed them); empty otherwise.
  std::optional<DependenceInfo> deps;

  /// The prover's options: over `deps` when the search left them.
  VerifyOptions verify_options() const {
    VerifyOptions opts;
    if (deps) opts.deps = &*deps;
    return opts;
  }
};

/// Resolves a plan spec: the identity, the optimizer's plan (searched with
/// optimize_locality under `run`), or a verify-grammar spec -- malformed
/// specs are Refusal("bad_plan", kUsage).
ResolvedPlan resolve_plan(const LoopNest& nest, const std::string& spec,
                          DefaultPlan empty, const RunOptions& run,
                          TraceArena& arena, Metrics& metrics);

// ---- analyze / full ---------------------------------------------------------

struct AnalyzeOutcome {
  /// Single-nest sources: the estimates, with the exact columns filled
  /// when the nest's iteration count is within run.verify_limit.
  std::optional<MemoryReport> report;
  /// Multi-phase sources: the summed iteration count, and the exact
  /// whole-program run when that is within run.verify_limit.
  Int iterations = 0;
  std::optional<ProgramStats> program;
};

AnalyzeOutcome run_analyze(const Program& program, const RunOptions& run,
                           TraceArena& arena, Metrics& metrics);

/// The payload section: "analysis" for a nest (report.has_value()),
/// "program" for a multi-phase source.
void analysis_json(JsonWriter& w, const Program& program,
                   const AnalyzeOutcome& outcome);

// ---- optimize ---------------------------------------------------------------

struct OptimizeOutcome {
  ObjectiveSpec objective;
  /// The shipped plan: the search's winner, or the identity when the
  /// winner could not be certified (predicted_mws follows the plan).
  OptimizeResult plan;
  std::optional<MissRatioPlan> miss_ratio;  ///< miss-ratio objective's re-scoring
  VerifyResult verdict;                     ///< prover's verdict on the winner
  std::optional<IntMat> uncertified;        ///< the refused winner, when downgraded
  /// Exact windows of the original and shipped orders, each measured only
  /// when its trace volume is within run.verify_limit (taken from the
  /// search's oracle re-score when it ran, traced here otherwise).
  std::optional<Int> mws_before;
  std::optional<Int> mws_after;
  /// Miss-ratio objective: the shipped plan's ratio at the capacity.
  std::optional<double> miss_ratio_after;
  /// Symbolic window of the shipped plan (best effort): the closed form and
  /// its value, or the eq. (2) estimate for general 2-D plans.
  std::optional<std::string> symbolic_window;
  std::optional<Int> symbolic_window_value;
  std::optional<std::string> symbolic_window_estimate;
};

/// Searches, certifies (a winner that does not certify is refused under
/// run.strict, downgraded to the identity otherwise) and measures.
/// `objective` is "" / "mws" or "miss-ratio:<capacity>".
OptimizeOutcome run_optimize(const Program& program, const std::string& objective,
                             const RunOptions& run, TraceArena& arena,
                             Metrics& metrics);

/// The "optimize" section.
void optimize_json(JsonWriter& w, const OptimizeOutcome& outcome);

// ---- symbolic ---------------------------------------------------------------

/// Closed forms for the source's nest; O(1) in the iteration volume.
SymbolicResult run_symbolic(const Program& program, Metrics& metrics);

// ---- verify -----------------------------------------------------------------

struct VerifyOutcome {
  ResolvedPlan plan;
  VerifyResult verdict;
  std::vector<Diagnostic> diagnostics;  ///< emit_verify_diagnostics, no file names
};

/// Certifies `plan_spec` ("" = the optimizer's own plan).
VerifyOutcome run_verify(const Program& program, const std::string& plan_spec,
                         const RunOptions& run, TraceArena& arena,
                         Metrics& metrics);

// ---- codegen ----------------------------------------------------------------

struct CodegenOutcome {
  ResolvedPlan plan;
  CodegenResult code;
  std::optional<RunVerdict> run;  ///< compile-and-execute verdict, when run
  std::string no_compiler;        ///< set when a run found no C compiler
  bool ok() const { return no_compiler.empty() && (!run || run->ok()); }
};

/// Lowers the nest under opts.plan; a non-identity plan must certify
/// (Refusal "uncertified" otherwise).  opts.run also compiles and executes
/// the unit (run_generated).
CodegenOutcome run_codegen(const Program& program,
                           const AnalysisRequest::Codegen& opts,
                           const RunOptions& run, TraceArena& arena,
                           Metrics& metrics);

/// Compiles the generated unit with `cc` ("" = cc from PATH) and executes
/// its self-check into outcome.run, or sets outcome.no_compiler.
void run_generated(CodegenOutcome& outcome, const std::string& cc);

/// The "codegen" section: plan, transform, window accounting, buffer
/// plans, the C unit and the run verdict.  Free of wall clocks, so
/// identical inputs render identical documents.
void codegen_json(JsonWriter& w, const CodegenOutcome& outcome);

// ---- mrc --------------------------------------------------------------------

struct MrcOutcome {
  ResolvedPlan plan;
  IntMat transform;            ///< the measured order's combined matrix
  MrcResult curve;
  std::vector<Int> capacities;  ///< requested, or the default sweep
};

/// Measures the miss-ratio curve of the order opts.plan names (unimodular
/// steps only); Refusal "too_large" past run.verify_limit.
MrcOutcome run_mrc(const Program& program, const AnalysisRequest::Mrc& opts,
                   const RunOptions& run, TraceArena& arena, Metrics& metrics);

/// The "mrc" section: mrc_json of the curve plus plan, method, transform.
void mrc_json(JsonWriter& w, const MrcOutcome& outcome);

}  // namespace lmre
