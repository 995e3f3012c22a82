#include "lint/checks.h"

#include <algorithm>
#include <sstream>

#include "exact/trace_engine.h"
#include "ir/nest.h"
#include "linalg/kernel.h"
#include "polyhedra/affine.h"
#include "support/checked.h"
#include "support/text.h"
#include "transform/minimizer.h"
#include "verify/verify.h"

namespace lmre::lint_detail {

namespace {

// "A[i + 1][j]"-style rendering of a reference, matching the DSL.
std::string ref_str(const LoopNest& nest, const ArrayRef& ref) {
  std::ostringstream os;
  os << nest.array(ref.array).name;
  for (size_t d = 0; d < ref.access.rows(); ++d) {
    AffineExpr e(ref.access.row(d), ref.offset[d]);
    os << '[' << e.str(nest.loop_vars()) << ']';
  }
  return os.str();
}

// First reference (in all_refs order) touching `array`, with its index.
size_t first_ref_index(const LoopNest& nest, ArrayId array) {
  std::vector<ArrayRef> refs = nest.all_refs();
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].array == array) return i;
  }
  return 0;
}

// True when the nonzero-column sets of the access rows are pairwise
// disjoint (e.g. A[i][j] in a deeper nest).  Then the per-row subscript
// ranges vary independently over the box and the image-size cap used for
// kernel dimension >= 2 is exact, so no precondition warning is needed.
bool disjoint_row_support(const IntMat& access) {
  for (size_t c = 0; c < access.cols(); ++c) {
    int users = 0;
    for (size_t r = 0; r < access.rows(); ++r) {
      if (access(r, c) != 0) ++users;
    }
    if (users > 1) return false;
  }
  return true;
}

// Partition of all referenced arrays into (id, refs) groups.
std::vector<std::pair<ArrayId, std::vector<ArrayRef>>> referenced_arrays(
    const LoopNest& nest) {
  std::vector<std::pair<ArrayId, std::vector<ArrayRef>>> out;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    std::vector<ArrayRef> refs = nest.refs_to(id);
    if (!refs.empty()) out.emplace_back(id, std::move(refs));
  }
  return out;
}

bool uniformly_generated(const std::vector<ArrayRef>& refs) {
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) return false;
  }
  return true;
}

}  // namespace

SourceSpan ref_span(const CheckContext& ctx, size_t ref_index) {
  if (ctx.map == nullptr || ref_index >= ctx.map->ref_locs.size()) return {};
  return {ctx.map->ref_locs[ref_index].line, ctx.map->ref_locs[ref_index].column};
}

SourceSpan loop_span(const CheckContext& ctx, size_t level) {
  if (ctx.map == nullptr || level >= ctx.map->loop_locs.size()) return {};
  return {ctx.map->loop_locs[level].line, ctx.map->loop_locs[level].column};
}

SourceSpan array_span(const CheckContext& ctx, const std::string& name) {
  if (ctx.map == nullptr) return {};
  auto it = ctx.map->array_decl_locs.find(name);
  if (it == ctx.map->array_decl_locs.end()) return {};
  return {it->second.line, it->second.column};
}

// LMRE-E001 / LMRE-W002 / LMRE-N015: subscript ranges vs declared extents.
//
// lmre's memories are index SETS, so an array holds its accesses as long as
// the touched span fits the declared extent at some base offset:
//   span > extent                     -> E001 error (fits at no base)
//   fits neither [0,E-1] nor [1,E],
//     all subscripts >= 0             -> W002 warning (suspicious shift)
//   reaches below 0                   -> N015 note (relocatable-window idiom)
void check_subscript_bounds(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  std::vector<ArrayRef> refs = nest.all_refs();
  std::set<std::string> seen;  // dedupe identical findings from repeated refs
  for (size_t i = 0; i < refs.size(); ++i) {
    const Array& arr = nest.array(refs[i].array);
    for (size_t d = 0; d < refs[i].access.rows(); ++d) {
      auto [lo, hi] = subscript_range(refs[i].access.row(d), refs[i].offset[d],
                                      nest.bounds());
      const Int extent = arr.extents[d];
      const Int span = checked_add(checked_sub(hi, lo), 1);
      const bool fits0 = lo >= 0 && hi <= extent - 1;
      const bool fits1 = lo >= 1 && hi <= extent;
      if (fits0 || fits1) continue;

      std::ostringstream msg;
      std::string id;
      Severity sev;
      if (span > extent) {
        id = "LMRE-E001";
        sev = Severity::kError;
        msg << "subscript " << d + 1 << " of '" << ref_str(nest, refs[i])
            << "' spans [" << lo << ", " << hi << "] (" << span
            << " values) but the declared extent is " << extent;
      } else if (lo < 0) {
        id = "LMRE-N015";
        sev = Severity::kNote;
        msg << "subscript " << d + 1 << " of '" << ref_str(nest, refs[i])
            << "' reaches below 0 (range [" << lo << ", " << hi
            << "]); treated as a relocatable window within extent " << extent;
      } else {
        id = "LMRE-W002";
        sev = Severity::kWarning;
        msg << "subscript " << d + 1 << " of '" << ref_str(nest, refs[i])
            << "' ranges [" << lo << ", " << hi
            << "]: outside both 0-based [0, " << extent - 1
            << "] and 1-based [1, " << extent << "] indexing";
      }
      if (!seen.insert(msg.str()).second) continue;
      switch (sev) {
        case Severity::kError: out.error(id, msg.str(), ref_span(ctx, i)); break;
        case Severity::kWarning: out.warning(id, msg.str(), ref_span(ctx, i)); break;
        case Severity::kNote: out.note(id, msg.str(), ref_span(ctx, i)); break;
      }
    }
  }
}

// LMRE-E003 / LMRE-N004: empty and degenerate loop ranges.
void check_loop_ranges(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  for (size_t k = 0; k < nest.depth(); ++k) {
    // Compare the bounds directly: trip_count() throws on a range too wide
    // for Int, which check_iteration_volume reports as LMRE-E009.
    const Range& r = nest.bounds().range(k);
    std::ostringstream msg;
    if (r.hi < r.lo) {
      msg << "loop '" << nest.loop_vars()[k] << "' has an empty range [" << r.lo
          << ", " << r.hi << "]; the nest executes no iterations";
      out.error("LMRE-E003", msg.str(), loop_span(ctx, k));
    } else if (r.hi == r.lo) {
      msg << "loop '" << nest.loop_vars()[k] << "' runs a single iteration ("
          << nest.loop_vars()[k] << " = " << r.lo
          << "); consider folding it into the body";
      out.note("LMRE-N004", msg.str(), loop_span(ctx, k));
    }
  }
}

// LMRE-W005: Section 3.1 requires every pair of references to an array to
// be uniformly generated (same access matrix).  When violated, the
// closed-form distinct/window estimates do not apply and the estimator
// falls back to the Section 3.2 range bounds (Example 6).
void check_uniform_generation(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  for (const auto& [id, refs] : referenced_arrays(nest)) {
    if (uniformly_generated(refs)) continue;
    std::ostringstream msg;
    msg << "references to '" << nest.array(id).name
        << "' are not uniformly generated (different access matrices); the"
           " Section 3.1 closed form does not apply and the estimator falls"
           " back to Section 3.2 range bounds";
    out.warning("LMRE-W005", msg.str(), ref_span(ctx, first_ref_index(nest, id)));
  }
}

// LMRE-W006 / LMRE-N007: Section 3.2's kernel-reuse formula assumes the
// access matrix has a ONE-dimensional null space (d == n-1, a single reuse
// direction).  A larger kernel with entangled subscript rows means the
// reuse volumes along different generators overlap, and the estimator
// substitutes a heuristic image cap; multiple references with kernel reuse
// are a case the paper omits entirely.
void check_kernel_dimension(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  for (const auto& [id, refs] : referenced_arrays(nest)) {
    if (!uniformly_generated(refs)) continue;  // LMRE-W005's territory
    std::vector<IntVec> kernel = integer_kernel_basis(refs[0].access);
    if (kernel.empty()) continue;  // injective: Section 3.1 applies exactly
    const size_t n = nest.depth();
    const size_t d = refs[0].access.rows();
    if (kernel.size() >= 2 && !disjoint_row_support(refs[0].access)) {
      std::ostringstream msg;
      msg << "access matrix of '" << nest.array(id).name << "' (" << d << " x "
          << n << ") has a " << kernel.size()
          << "-dimensional null space with entangled subscript rows; the"
             " Section 3.2 closed form requires d == n-1 and the estimate"
             " falls back to a heuristic image cap";
      out.warning("LMRE-W006", msg.str(), ref_span(ctx, first_ref_index(nest, id)));
    }
    if (refs.size() > 1) {
      std::ostringstream msg;
      msg << "'" << nest.array(id).name << "' has " << refs.size()
          << " references with kernel reuse (d = " << d << " < n = " << n
          << "); the paper omits this case and lmre applies its documented"
             " extension (exactness not claimed)";
      out.note("LMRE-N007", msg.str(), ref_span(ctx, first_ref_index(nest, id)));
    }
  }
}

// LMRE-W008 / LMRE-E009: pre-flight the iteration-volume product with
// checked_mul, and the trace engine's per-array reference boxes with the
// engine's own plan construction, so exact analyses warn (or fail with a
// diagnosis) up front instead of throwing OverflowError mid-run.  The
// original-order plan suffices: an execution order changes the address
// coefficients, never the boxes.
void check_iteration_volume(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  Int volume = 1;
  bool overflow = false;
  for (size_t k = 0; k < nest.depth() && !overflow; ++k) {
    try {
      volume = checked_mul(volume, nest.bounds().range(k).trip_count());
    } catch (const OverflowError&) {
      overflow = true;
    }
  }
  if (overflow) {
    out.error("LMRE-E009",
              "iteration volume overflows 64-bit arithmetic; exact analyses"
              " (simulate, mrc, series) would throw OverflowError",
              loop_span(ctx, 0));
  } else if (volume > ctx.opts.volume_warn_threshold) {
    std::ostringstream msg;
    msg << "iteration volume " << with_commas(volume)
        << " exceeds the exact-analysis threshold "
        << with_commas(ctx.opts.volume_warn_threshold)
        << "; the oracle walks every iteration, expect long analyze times";
    out.warning("LMRE-W008", msg.str(), loop_span(ctx, 0));
  }
  if (!overflow) {
    try {
      (void)AddressPlan::build(nest, nullptr, /*liveness_order=*/false);
    } catch (const OverflowError& e) {
      out.error("LMRE-E009",
                std::string(e.what()) +
                    "; exact analyses (simulate, mrc, series) would throw"
                    " OverflowError",
                loop_span(ctx, 0));
    }
  }
  // Declared sizes feed default_memory(); pre-flight them too.
  for (const auto& arr : nest.arrays()) {
    try {
      (void)arr.declared_size();
    } catch (const OverflowError&) {
      std::ostringstream msg;
      msg << "declared size of '" << arr.name
          << "' overflows 64-bit arithmetic; default-memory accounting would"
             " throw OverflowError";
      out.error("LMRE-E009", msg.str(), array_span(ctx, arr.name));
    }
  }
}

// LMRE-W010 / LMRE-N011: declared-but-unreferenced and write-only arrays.
void check_array_usage(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    const std::string& name = nest.array(id).name;
    std::vector<ArrayRef> refs = nest.refs_to(id);
    if (refs.empty()) {
      out.warning("LMRE-W010",
                  "array '" + name + "' is declared but never referenced",
                  array_span(ctx, name));
      continue;
    }
    bool read_here = std::any_of(refs.begin(), refs.end(),
                                 [](const ArrayRef& r) { return !r.is_write(); });
    bool read_elsewhere =
        ctx.read_anywhere != nullptr && ctx.read_anywhere->count(name) > 0;
    if (!read_here && !read_elsewhere) {
      out.note("LMRE-N011",
               "array '" + name +
                   "' is written but never read; a pure output whose"
                   " elements stay live to the end of the nest",
               ref_span(ctx, first_ref_index(nest, id)));
    }
  }
}

// LMRE-W012: the same reference (array, kind, access, offset) repeated
// within one statement -- inflates access counts without changing the
// touched set; usually a copy/paste slip in the source.
void check_duplicate_refs(const CheckContext& ctx, DiagnosticEngine& out) {
  const LoopNest& nest = ctx.nest;
  size_t base = 0;
  for (const auto& stmt : nest.statements()) {
    const auto& refs = stmt.refs;
    for (size_t i = 0; i < refs.size(); ++i) {
      for (size_t j = i + 1; j < refs.size(); ++j) {
        if (refs[i].array == refs[j].array && refs[i].kind == refs[j].kind &&
            refs[i].access == refs[j].access && refs[i].offset == refs[j].offset) {
          std::ostringstream msg;
          msg << "statement repeats the identical reference '"
              << ref_str(nest, refs[j])
              << "'; duplicate accesses inflate access counts but not the"
                 " touched set";
          out.warning("LMRE-W012", msg.str(), ref_span(ctx, base + j));
        }
      }
    }
    base += refs.size();
  }
}

// LMRE-E013 / LMRE-E019 / LMRE-W014 / LMRE-W020 / LMRE-N016: independent
// re-certification of a transform plan, delegated to the legality prover
// (src/verify) so the logic lives in exactly one place.  The dependence set
// is RE-DERIVED by the engine (not taken from the optimizer), so `lmre lint
// --plan` audits optimize output against the nest's own facts: exact
// lexicographic legality over the memory dependences (Section 4, with a
// concrete reversal witness on failure), tiling legality (component-wise
// non-negativity, Section 4.1) over the full set including input reuse --
// the constraint the minimizer itself searches under.  The N021/N022
// parallelism notes stay with the `verify` verb; lint keeps its legacy
// output surface.
void check_transform_plan(const CheckContext& ctx, DiagnosticEngine& out) {
  if (ctx.opts.plan == nullptr && !ctx.opts.audit_plan) return;
  const LoopNest& nest = ctx.nest;

  VerifyPlan plan;
  std::string origin;
  if (ctx.opts.plan != nullptr) {
    plan.steps.push_back(*ctx.opts.plan);
    origin = "supplied plan";
  } else {
    OptimizeResult res = optimize_locality(nest);
    plan.steps.push_back(res.transform);
    origin = "optimize plan (method '" + res.method + "')";
  }
  VerifyResult verdict = verify_plan(nest, plan);
  emit_verify_diagnostics(nest, verdict, origin, /*parallel_notes=*/false, out);
}

const std::vector<RegisteredCheck>& check_registry() {
  static const std::vector<RegisteredCheck> registry = {
      {"subscript-bounds", check_subscript_bounds},
      {"loop-ranges", check_loop_ranges},
      {"uniform-generation", check_uniform_generation},
      {"kernel-dimension", check_kernel_dimension},
      {"iteration-volume", check_iteration_volume},
      {"array-usage", check_array_usage},
      {"duplicate-refs", check_duplicate_refs},
      {"transform-plan", check_transform_plan},
  };
  return registry;
}

}  // namespace lmre::lint_detail
