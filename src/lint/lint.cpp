#include "lint/lint.h"

#include <algorithm>

#include "lint/checks.h"
#include "support/error.h"

namespace lmre {

using lint_detail::CheckContext;
using lint_detail::check_registry;

size_t LintResult::count(Severity s) const {
  return static_cast<size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

const std::vector<LintCheckInfo>& lint_checks() {
  static const std::vector<LintCheckInfo> infos = {
      {"LMRE-E000", "check-failure",
       "a lint pass itself failed; reported instead of thrown"},
      {"LMRE-E001", "subscript-bounds",
       "touched subscript span must fit the declared extent"},
      {"LMRE-W002", "subscript-window",
       "subscript range should fit 0-based [0,E-1] or 1-based [1,E] indexing"},
      {"LMRE-E003", "empty-loop", "every loop range must contain iterations"},
      {"LMRE-N004", "degenerate-loop", "single-iteration loop level"},
      {"LMRE-W005", "non-uniform-refs",
       "Sec 3.1 closed form requires uniformly generated references"},
      {"LMRE-W006", "kernel-dimension",
       "Sec 3.2 closed form requires a 1-dimensional null space (d == n-1)"},
      {"LMRE-N007", "estimator-extension",
       "multi-reference kernel reuse: paper-omitted case, lmre extension"},
      {"LMRE-W008", "iteration-volume",
       "iteration count within the exact-analysis threshold"},
      {"LMRE-E009", "iteration-overflow",
       "trip-count, declared-size and reference-box products must fit"
       " 64-bit arithmetic"},
      {"LMRE-W010", "unused-array", "declared arrays should be referenced"},
      {"LMRE-N011", "write-only-array",
       "array written but never read anywhere in the program"},
      {"LMRE-W012", "duplicate-ref",
       "identical reference repeated within one statement"},
      {"LMRE-E013", "illegal-plan",
       "transform plans must be unimodular and preserve lexicographic"
       " positivity of the re-derived dependence set (Sec 4)"},
      {"LMRE-W014", "plan-not-tileable",
       "tiling requires component-wise non-negative transformed distances"
       " (Sec 4.1)"},
      {"LMRE-N015", "negative-base",
       "subscripts below 0 use the relocatable-window idiom"},
      {"LMRE-N016", "plan-certified", "positive plan re-certification verdict"},
      {"LMRE-E017", "symbolic-unsupported",
       "symbolic closed forms apply to no array of the nest; the request"
       " is declined instead of emitting a wrong formula"},
      {"LMRE-N018", "symbolic-partial",
       "a per-array quantity has no symbolic closed form; the trace oracle"
       " remains exact for it"},
      {"LMRE-E019", "dependence-reversal",
       "transform plans must not reverse the execution order of any memory"
       " dependence; refutations carry a concrete iteration-pair witness"},
      {"LMRE-W020", "direction-only",
       "non-uniform reference pairs are judged at direction-vector"
       " granularity; the cone argument is sound but not distance-exact"},
      {"LMRE-N021", "doall-certified",
       "transformed loop levels carrying no memory dependence are"
       " DOALL-parallel"},
      {"LMRE-N022", "wavefront-race-free",
       "all memory dependences carried by the outermost transformed loop;"
       " wavefront inner levels are race-free"},
  };
  return infos;
}

namespace {

// Runs every registered pass over one nest.  A pass that throws is
// converted into an LMRE-E000 diagnostic so lint itself never throws on
// analyzable input.
void run_checks(const LoopNest& nest, const NestSourceMap* map,
                const LintOptions& opts, const std::string& phase,
                const std::set<std::string>* read_anywhere,
                DiagnosticEngine& engine) {
  engine.set_phase(phase);
  CheckContext ctx{nest, map, opts, read_anywhere};
  for (const auto& check : check_registry()) {
    try {
      check.fn(ctx, engine);
    } catch (const Error& e) {
      engine.error("LMRE-E000",
                   std::string("check '") + check.name + "' failed: " + e.what());
    }
  }
}

LintResult finish(DiagnosticEngine& engine, const LintOptions& opts) {
  LintResult result{engine.take()};
  if (!opts.enabled_ids.empty()) {
    auto keep = [&](const Diagnostic& d) {
      return std::find(opts.enabled_ids.begin(), opts.enabled_ids.end(), d.id) !=
             opts.enabled_ids.end();
    };
    std::erase_if(result.diagnostics,
                  [&](const Diagnostic& d) { return !keep(d); });
  }
  return result;
}

}  // namespace

LintResult lint_nest(const LoopNest& nest, const NestSourceMap* map,
                     const LintOptions& opts) {
  DiagnosticEngine engine;
  run_checks(nest, map, opts, "", nullptr, engine);
  return finish(engine, opts);
}

LintResult lint_program(const Program& program, const ProgramSourceMap* map,
                        const LintOptions& opts) {
  // Cross-phase read set: an array written in one phase but read in a later
  // (or earlier) one is not "write-only".
  std::set<std::string> read_anywhere;
  for (size_t k = 0; k < program.phase_count(); ++k) {
    const LoopNest& nest = program.phase_nest(k);
    for (const ArrayRef& r : nest.all_refs()) {
      if (!r.is_write()) read_anywhere.insert(nest.array(r.array).name);
    }
  }

  // Plan re-certification is a single-nest notion; drop it for multi-phase
  // programs (the CLI rejects that combination up front).
  LintOptions phase_opts = opts;
  if (program.phase_count() > 1) {
    phase_opts.plan = nullptr;
    phase_opts.audit_plan = false;
  }

  DiagnosticEngine engine;
  for (size_t k = 0; k < program.phase_count(); ++k) {
    const NestSourceMap* phase_map =
        (map != nullptr && k < map->phases.size()) ? &map->phases[k] : nullptr;
    std::string phase = program.phase_count() > 1 ? program.phase_name(k) : "";
    run_checks(program.phase_nest(k), phase_map, phase_opts, phase,
               &read_anywhere, engine);
  }
  return finish(engine, opts);
}

}  // namespace lmre
