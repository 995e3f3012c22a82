#include "runtime/handlers.h"

#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "transform/transformed.h"

namespace lmre {

const LoopNest& single_nest(const Program& program, const char* what) {
  if (program.phase_count() != 1) {
    throw Refusal("unsupported", ExitCode::kFailure,
                  std::string(what) + " works on single-nest sources");
  }
  return program.phase_nest(0);
}

ResolvedPlan resolve_plan(const LoopNest& nest, const std::string& spec,
                          DefaultPlan empty, const RunOptions& run,
                          TraceArena& arena, Metrics& metrics) {
  ResolvedPlan r;
  const bool optimizer =
      empty == DefaultPlan::kOptimizer ? spec.empty() : spec == "auto";
  if (optimizer) {
    OptimizeResult opt;
    {
      Metrics::ScopedTimer t = metrics.time("stage.optimize");
      r.deps = analyze_dependences(nest);
      MinimizerOptions mopts = minimizer_options(run);
      mopts.deps = &*r.deps;
      opt = optimize_locality(nest, mopts, arena);
    }
    r.plan.steps = {opt.transform};
    r.origin = "optimize plan (method '" + opt.method + "')";
    r.method = std::move(opt.method);
  } else if (spec.empty()) {
    r.origin = "identity plan";
  } else {
    std::string perr;
    std::optional<VerifyPlan> parsed = parse_plan_spec(spec, &perr);
    if (!parsed) {
      throw Refusal("bad_plan", ExitCode::kUsage, "bad plan spec: " + perr);
    }
    r.plan = std::move(*parsed);
    r.origin = "supplied plan";
  }
  return r;
}

AnalyzeOutcome run_analyze(const Program& program, const RunOptions& run,
                           TraceArena& arena, Metrics& metrics) {
  AnalyzeOutcome out;
  if (program.phase_count() == 1) {
    const LoopNest& nest = program.phase_nest(0);
    {
      Metrics::ScopedTimer t = metrics.time("stage.estimate");
      out.report = analyze_memory(nest, /*with_oracle=*/false);
    }
    if (nest.iteration_count() <= run.verify_limit) {
      Metrics::ScopedTimer t = metrics.time("stage.mws");
      attach_exact(*out.report, nest, simulate(nest, /*unused=*/1, arena));
    }
    return out;
  }
  for (size_t k = 0; k < program.phase_count(); ++k) {
    out.iterations = checked_add(out.iterations, program.phase_nest(k).iteration_count());
  }
  if (out.iterations <= run.verify_limit) {
    Metrics::ScopedTimer t = metrics.time("stage.mws");
    out.program = program.simulate(arena);
  }
  return out;
}

void analysis_json(JsonWriter& w, const Program& program,
                   const AnalyzeOutcome& outcome) {
  w.begin_object();
  if (!outcome.report) {
    if (!outcome.program) {
      w.field("exact_skipped", true).field("iterations", outcome.iterations);
      w.end_object();
      return;
    }
    const ProgramStats& stats = *outcome.program;
    w.field("default_memory", stats.default_memory)
        .field("distinct_exact", stats.distinct_total)
        .field("iterations", outcome.iterations)
        .field("mws_exact", stats.mws_total)
        .key("phases")
        .begin_array();
    for (size_t k = 0; k < program.phase_count(); ++k) {
      w.begin_object()
          .field("handoff", stats.handoff[k])
          .field("mws", stats.phase_mws[k])
          .field("name", program.phase_name(k))
          .field("start", stats.phase_start[k])
          .end_object();
    }
    w.end_array().end_object();
    return;
  }

  const LoopNest& nest = program.phase_nest(0);
  const MemoryReport& rep = *outcome.report;
  w.key("arrays").begin_array();
  for (const ArrayReport& ar : rep.arrays) {
    w.begin_object().field("declared", ar.declared);
    if (ar.distinct_estimate) w.field("distinct_estimate", *ar.distinct_estimate);
    if (ar.mws_exact) w.field("distinct_exact", *ar.distinct_exact);
    if (ar.distinct_lower) w.field("distinct_lower", *ar.distinct_lower);
    if (ar.distinct_upper) w.field("distinct_upper", *ar.distinct_upper);
    if (ar.mws_estimate) w.field("mws_estimate", *ar.mws_estimate);
    if (ar.mws_exact) w.field("mws_exact", *ar.mws_exact);
    w.field("name", ar.name).end_object();
  }
  w.end_array()
      .field("default_memory", rep.default_memory)
      .field("depth", static_cast<Int>(nest.depth()))
      .field("distinct_estimate", rep.distinct_estimate_total);
  if (rep.mws_exact_total) {
    w.field("distinct_exact", *rep.distinct_exact_total);
  } else {
    w.field("exact_skipped", true);
  }
  w.field("iterations", nest.iteration_count());
  if (rep.mws_estimate_total) w.field("mws_estimate", *rep.mws_estimate_total);
  if (rep.mws_exact_total) w.field("mws_exact", *rep.mws_exact_total);
  w.end_object();
}

OptimizeOutcome run_optimize(const Program& program, const std::string& objective,
                             const RunOptions& run, TraceArena& arena,
                             Metrics& metrics) {
  const LoopNest& nest = single_nest(program, "optimize");
  std::optional<ObjectiveSpec> spec = parse_objective_spec(objective);
  if (!spec) {
    throw Refusal("bad_objective", ExitCode::kUsage,
                  "bad objective spec '" + objective +
                      "' (want mws or miss-ratio:<capacity>)");
  }
  OptimizeOutcome o;
  o.objective = *spec;
  OptimizeResult& plan = o.plan;
  // One dependence analysis serves the search, its scores and the audit.
  DependenceInfo deps;
  MinimizerOptions mopts = minimizer_options(run);
  mopts.deps = &deps;
  {
    Metrics::ScopedTimer t = metrics.time("stage.optimize");
    if (spec->miss_ratio) {
      // Past the verify limit the objective is refused before any analysis.
      if (nest.iteration_count() <= run.verify_limit) {
        deps = analyze_dependences(nest);
        o.miss_ratio = optimize_miss_ratio(nest, spec->capacity, mopts, arena);
      }
      if (!o.miss_ratio) {
        throw Refusal("too_large", ExitCode::kFailure,
                      "miss-ratio objective needs exact re-scoring; "
                      "iteration volume exceeds the verify limit");
      }
      plan.transform = o.miss_ratio->transform;
      plan.method = o.miss_ratio->method;
      plan.predicted_mws = predicted_mws_after(nest, deps, plan.transform);
    } else {
      deps = analyze_dependences(nest);
      plan = optimize_locality(nest, mopts, arena);
    }
  }
  // Independent legality audit of the winning plan: the minimizer only
  // searches legal transforms, but the prover's verdict is recorded
  // regardless, and an uncertifiable plan is never shipped -- it is
  // refused under --strict, downgraded to the identity otherwise.
  VerifyPlan vplan;
  vplan.steps = {plan.transform};
  VerifyOptions vopts;
  vopts.deps = &deps;
  {
    Metrics::ScopedTimer t = metrics.time("stage.verify");
    o.verdict = verify_plan(nest, vplan, vopts);
  }
  if (!o.verdict.certified) {
    if (run.strict) {
      throw Refusal("uncertified", ExitCode::kDiagnostics,
                    "optimize plan " + plan.transform.str() +
                        " cannot be certified; refused under --strict");
    }
    o.uncertified = plan.transform;
    plan.transform = IntMat::identity(nest.depth());
    plan.method = "identity (uncertified plan downgraded)";
    plan.predicted_mws = predicted_mws_after(nest, deps, plan.transform);
    plan.mws_exact = plan.mws_identity;
  }
  // Symbolic window formula for the shipped plan: exact through signed
  // permutations, the paper's eq. (2) estimate for other 2-D plans.
  // Best-effort -- a decline or eval overflow just omits the fields, and
  // the numeric results stay authoritative.
  try {
    SymbolicResult sym = symbolic_analysis_transformed(nest, plan.transform);
    if (sym.window_total) {
      o.symbolic_window = sym.window_total->str();
      o.symbolic_window_value = sym.window_total->eval(sym.bound_values);
    } else if (sym.window_estimate) {
      o.symbolic_window_estimate = *sym.window_estimate;
    }
  } catch (const Error&) {
  }
  // The MWS re-score already traced both orders; trace again only where
  // it did not run (the miss-ratio objective).
  if (nest.iteration_count() <= run.verify_limit) {
    o.mws_before = plan.mws_identity
                       ? *plan.mws_identity
                       : simulate(nest, /*unused=*/1, arena).mws_total;
  }
  if (transformed_scan_volume(nest, plan.transform) <= run.verify_limit) {
    o.mws_after = plan.mws_exact
                      ? *plan.mws_exact
                      : simulate_transformed(nest, plan.transform, arena).mws_total;
  }
  if (spec->miss_ratio) {
    // The re-score measured every order that can ship: a downgrade ships
    // the identity, whose ratio is the baseline.
    o.miss_ratio_after = o.uncertified ? o.miss_ratio->miss_ratio_before
                                       : o.miss_ratio->miss_ratio_after;
  }
  return o;
}

void optimize_json(JsonWriter& w, const OptimizeOutcome& o) {
  const bool miss_ratio = o.objective.miss_ratio;
  w.begin_object().field("certified", o.verdict.certified);
  if (o.uncertified) w.field("downgraded", true);
  w.field("method", o.plan.method);
  if (miss_ratio) {
    w.field("miss_ratio_after", *o.miss_ratio_after)
        .field("miss_ratio_before", o.miss_ratio->miss_ratio_before);
  }
  if (o.mws_after) w.field("mws_after", *o.mws_after);
  if (o.mws_before) w.field("mws_before", *o.mws_before);
  // The chosen objective, named and valued, in every optimize document:
  // miss-ratio runs stay distinguishable from MWS runs.
  w.field("objective", o.objective.name());
  if (miss_ratio) {
    w.field("objective_capacity", o.objective.capacity)
        .field("objective_value", *o.miss_ratio_after);
  } else {
    // Exact when measured, the analytic prediction otherwise.
    w.field("objective_value", o.mws_after ? *o.mws_after : o.plan.predicted_mws);
  }
  w.field("predicted_mws", o.plan.predicted_mws);
  if (o.symbolic_window) w.field("symbolic_window", *o.symbolic_window);
  if (o.symbolic_window_estimate) {
    w.field("symbolic_window_estimate", *o.symbolic_window_estimate);
  }
  if (o.symbolic_window_value) {
    w.field("symbolic_window_value", *o.symbolic_window_value);
  }
  w.key("transform").matrix(o.plan.transform);
  if (o.uncertified) w.key("uncertified_transform").matrix(*o.uncertified);
  w.end_object();
}

SymbolicResult run_symbolic(const Program& program, Metrics& metrics) {
  const LoopNest& nest = single_nest(program, "symbolic analysis");
  Metrics::ScopedTimer t = metrics.time("stage.symbolic");
  return symbolic_analysis(nest);
}

VerifyOutcome run_verify(const Program& program, const std::string& plan_spec,
                         const RunOptions& run, TraceArena& arena,
                         Metrics& metrics) {
  const LoopNest& nest = single_nest(program, "verify");
  VerifyOutcome v;
  v.plan = resolve_plan(nest, plan_spec, DefaultPlan::kOptimizer, run, arena,
                        metrics);
  {
    Metrics::ScopedTimer t = metrics.time("stage.verify");
    v.verdict = verify_plan(nest, v.plan.plan, v.plan.verify_options());
  }
  DiagnosticEngine engine;
  emit_verify_diagnostics(nest, v.verdict, v.plan.origin,
                          /*parallel_notes=*/true, engine);
  v.diagnostics = engine.diagnostics();
  return v;
}

CodegenOutcome run_codegen(const Program& program,
                           const AnalysisRequest::Codegen& opts,
                           const RunOptions& run, TraceArena& arena,
                           Metrics& metrics) {
  const LoopNest& nest = single_nest(program, "codegen");
  CodegenOutcome cg;
  cg.plan = resolve_plan(nest, opts.plan, DefaultPlan::kIdentity, run, arena,
                         metrics);
  // Only certified plans are ever lowered: an uncertifiable spec is a
  // refusal, never silently-emitted wrong code.
  if (!opts.plan.empty()) {
    VerifyResult verdict;
    {
      Metrics::ScopedTimer t = metrics.time("stage.verify");
      verdict = verify_plan(nest, cg.plan.plan, cg.plan.verify_options());
    }
    if (!verdict.certified) {
      throw Refusal("uncertified", ExitCode::kDiagnostics,
                    cg.plan.origin + " " + cg.plan.plan.str() +
                        " cannot be certified; codegen refuses uncertified plans");
    }
  }
  {
    Metrics::ScopedTimer t = metrics.time("stage.codegen");
    CodegenOptions eopts;
    eopts.trace_limit = run.verify_limit;
    cg.code = emit_c(nest, cg.plan.plan, eopts);
  }
  if (opts.run) run_generated(cg, opts.cc);
  return cg;
}

void run_generated(CodegenOutcome& outcome, const std::string& cc) {
  std::string path = find_cc(cc);
  if (path.empty()) {
    outcome.no_compiler = "no usable C compiler (" +
                          (cc.empty() ? std::string("cc") : cc) + ") on PATH";
    return;
  }
  outcome.run = compile_and_run(outcome.code.c_source, path);
}

void codegen_json(JsonWriter& w, const CodegenOutcome& outcome) {
  const CodegenResult& cg = outcome.code;
  w.begin_object().key("buffers").begin_array();
  for (const BufferPlan& b : cg.buffers) {
    w.begin_object()
        .field("cold_loads", b.cold_loads)
        .field("collision_free", b.collision_free)
        .field("declared", b.declared)
        .field("modulus", b.modulus)
        .field("mws", b.mws)
        .field("name", b.name)
        .field("region", b.region)
        .field("writebacks", b.writebacks)
        .end_object();
  }
  w.end_array()
      .field("c", cg.c_source)
      .field("certified", true)
      .field("footprint_ratio", cg.footprint_ratio())
      .field("iterations", cg.iterations)
      .field("mws_total", cg.mws_total)
      .field("original_cells", cg.original_cells)
      .field("plan", outcome.plan.plan.str());
  if (!outcome.no_compiler.empty()) {
    w.key("run")
        .begin_object()
        .field("compiled", false)
        .field("detail", outcome.no_compiler)
        .end_object();
  } else if (const std::optional<RunVerdict>& v = outcome.run) {
    // The verdict is deterministic (its counters depend only on the source
    // and the plan); the wall clocks stay out.
    w.key("run").begin_object().field("compiled", v->compiled);
    if (!v->ok()) w.field("detail", v->detail);
    w.field("identical", v->identical)
        .field("loads", v->loads)
        .field("mws_measured", v->mws_measured)
        .field("mws_ok", v->mws_ok)
        .field("ran", v->ran)
        .field("reloads", v->reloads)
        .field("sink_match", v->sink_match)
        .field("status", v->status)
        .field("stores", v->stores)
        .field("traffic_ok", v->traffic_ok)
        .end_object();
  }
  if (!cg.tile_sizes.empty()) w.key("tile_sizes").int_array(cg.tile_sizes);
  w.key("transform").matrix(cg.combined).field("window_cells", cg.window_cells);
  w.end_object();
}

MrcOutcome run_mrc(const Program& program, const AnalysisRequest::Mrc& opts,
                   const RunOptions& run, TraceArena& arena, Metrics& metrics) {
  const LoopNest& nest = single_nest(program, "mrc");
  if (!(opts.sample_rate > 0.0) || opts.sample_rate > 1.0) {
    throw Refusal("bad_sample_rate", ExitCode::kUsage,
                  "sample rate must be in (0, 1]");
  }
  for (Int c : opts.capacities) {
    if (c < 0) {
      throw Refusal("bad_capacities", ExitCode::kUsage,
                    "capacities must be non-negative integers");
    }
  }
  // MRC measures an order, it does not certify one -- legality questions
  // belong to the verify kind.
  MrcOutcome m;
  m.plan = resolve_plan(nest, opts.plan, DefaultPlan::kIdentity, run, arena,
                        metrics);
  if (m.plan.plan.has_tiling()) {
    throw Refusal("bad_plan", ExitCode::kUsage,
                  "mrc measures unimodular execution orders; "
                  "tiling chunks are not supported");
  }
  m.transform = m.plan.plan.combined(nest.depth());
  // Sampling thins the distance structure, not the trace: both modes walk
  // every iteration, so the volume gate applies regardless.
  const bool ident = m.transform == IntMat::identity(nest.depth());
  if (nest.iteration_count() > run.verify_limit ||
      (!ident && transformed_scan_volume(nest, m.transform) > run.verify_limit)) {
    throw Refusal("too_large", ExitCode::kFailure,
                  "mrc needs an exhaustive trace; iteration volume exceeds "
                  "the verify limit");
  }
  MrcOptions mo;
  mo.transform = ident ? nullptr : &m.transform;
  mo.sample_rate = opts.sample_rate;
  {
    Metrics::ScopedTimer t = metrics.time("stage.mrc");
    m.curve = compute_mrc(nest, mo, arena);
  }
  m.capacities = opts.capacities;
  if (m.capacities.empty()) m.capacities = default_mrc_capacities(m.curve);
  return m;
}

void mrc_json(JsonWriter& w, const MrcOutcome& outcome) {
  const MrcOrder order{outcome.plan.plan.str(), outcome.plan.method,
                       &outcome.transform};
  mrc_json(w, outcome.curve, outcome.capacities, &order);
}

}  // namespace lmre
