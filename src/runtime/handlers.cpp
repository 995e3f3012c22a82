#include "runtime/handlers.h"

#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "transform/transformed.h"

namespace lmre {

namespace {

Json transform_json(const IntMat& t) {
  Json rows = Json::array();
  for (size_t r = 0; r < t.rows(); ++r) {
    Json row = Json::array();
    for (size_t c = 0; c < t.cols(); ++c) row.push(t(r, c));
    rows.push(std::move(row));
  }
  return rows;
}

}  // namespace

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
      opt = optimize_locality(nest, minimizer_options(run), arena);
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
    out.program = program.simulate();
  }
  return out;
}

Json analysis_json(const Program& program, const AnalyzeOutcome& outcome) {
  Json doc = Json::object();
  if (!outcome.report) {
    doc.set("iterations", outcome.iterations);
    if (!outcome.program) return doc.set("exact_skipped", true);
    const ProgramStats& stats = *outcome.program;
    doc.set("default_memory", stats.default_memory);
    doc.set("distinct_exact", stats.distinct_total);
    doc.set("mws_exact", stats.mws_total);
    Json phases = Json::array();
    for (size_t k = 0; k < program.phase_count(); ++k) {
      phases.push(Json::object()
                      .set("name", program.phase_name(k))
                      .set("start", stats.phase_start[k])
                      .set("handoff", stats.handoff[k])
                      .set("mws", stats.phase_mws[k]));
    }
    return doc.set("phases", std::move(phases));
  }

  const LoopNest& nest = program.phase_nest(0);
  const MemoryReport& rep = *outcome.report;
  doc.set("depth", static_cast<Int>(nest.depth()));
  doc.set("iterations", nest.iteration_count());
  doc.set("default_memory", rep.default_memory);
  doc.set("distinct_estimate", rep.distinct_estimate_total);
  if (rep.mws_estimate_total) doc.set("mws_estimate", *rep.mws_estimate_total);
  if (rep.mws_exact_total) {
    doc.set("distinct_exact", *rep.distinct_exact_total);
    doc.set("mws_exact", *rep.mws_exact_total);
  } else {
    doc.set("exact_skipped", true);
  }
  Json arrays = Json::array();
  for (const ArrayReport& ar : rep.arrays) {
    Json ja = Json::object();
    ja.set("name", ar.name).set("declared", ar.declared);
    if (ar.distinct_estimate) ja.set("distinct_estimate", *ar.distinct_estimate);
    if (ar.distinct_upper) ja.set("distinct_upper", *ar.distinct_upper);
    if (ar.distinct_lower) ja.set("distinct_lower", *ar.distinct_lower);
    if (ar.mws_estimate) ja.set("mws_estimate", *ar.mws_estimate);
    if (ar.mws_exact) {
      ja.set("distinct_exact", *ar.distinct_exact);
      ja.set("mws_exact", *ar.mws_exact);
    }
    arrays.push(std::move(ja));
  }
  return doc.set("arrays", std::move(arrays));
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
  {
    Metrics::ScopedTimer t = metrics.time("stage.optimize");
    if (spec->miss_ratio) {
      o.miss_ratio = optimize_miss_ratio(nest, spec->capacity,
                                         minimizer_options(run), arena);
      if (!o.miss_ratio) {
        throw Refusal("too_large", ExitCode::kFailure,
                      "miss-ratio objective needs exact re-scoring; "
                      "iteration volume exceeds the verify limit");
      }
      plan.transform = o.miss_ratio->transform;
      plan.method = o.miss_ratio->method;
      plan.predicted_mws = predicted_mws_after(nest, plan.transform);
    } else {
      plan = optimize_locality(nest, minimizer_options(run), arena);
    }
  }
  // Independent legality audit of the winning plan: the minimizer only
  // searches legal transforms, but the prover's verdict is recorded
  // regardless, and an uncertifiable plan is never shipped -- it is
  // refused under --strict, downgraded to the identity otherwise.
  VerifyPlan vplan;
  vplan.steps = {plan.transform};
  {
    Metrics::ScopedTimer t = metrics.time("stage.verify");
    o.verdict = verify_plan(nest, vplan);
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
    plan.predicted_mws = predicted_mws_after(nest, plan.transform);
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
  if (nest.iteration_count() <= run.verify_limit) {
    o.mws_before = simulate(nest, /*unused=*/1, arena).mws_total;
  }
  if (transformed_scan_volume(nest, plan.transform) <= run.verify_limit) {
    o.mws_after = simulate_transformed(nest, plan.transform, arena).mws_total;
  }
  if (spec->miss_ratio) {
    // Re-measure on the shipped transform so a downgrade reports the
    // shipped plan's ratio, not the refused one's.
    MrcOptions mo;
    const bool ident = plan.transform == IntMat::identity(nest.depth());
    mo.transform = ident ? nullptr : &plan.transform;
    Metrics::ScopedTimer t = metrics.time("stage.mrc");
    o.miss_ratio_after =
        compute_mrc(nest, mo, arena).aggregate.miss_ratio(spec->capacity);
  }
  return o;
}

Json optimize_json(const OptimizeOutcome& o) {
  Json doc = Json::object();
  doc.set("certified", o.verdict.certified);
  if (o.uncertified) {
    doc.set("downgraded", true);
    doc.set("uncertified_transform", transform_json(*o.uncertified));
  }
  doc.set("method", o.plan.method);
  doc.set("transform", transform_json(o.plan.transform));
  if (o.symbolic_window) doc.set("symbolic_window", *o.symbolic_window);
  if (o.symbolic_window_value) {
    doc.set("symbolic_window_value", *o.symbolic_window_value);
  }
  if (o.symbolic_window_estimate) {
    doc.set("symbolic_window_estimate", *o.symbolic_window_estimate);
  }
  if (o.mws_before) doc.set("mws_before", *o.mws_before);
  if (o.mws_after) doc.set("mws_after", *o.mws_after);
  // The chosen objective, named and valued, in every optimize document:
  // miss-ratio runs stay distinguishable from MWS runs.
  doc.set("objective", o.objective.name());
  if (o.objective.miss_ratio) {
    doc.set("objective_capacity", o.objective.capacity);
    doc.set("objective_value", Json::number(*o.miss_ratio_after));
    doc.set("miss_ratio_before", Json::number(o.miss_ratio->miss_ratio_before));
    doc.set("miss_ratio_after", Json::number(*o.miss_ratio_after));
  } else {
    // Exact when measured, the analytic prediction otherwise.
    doc.set("objective_value", o.mws_after ? *o.mws_after : o.plan.predicted_mws);
  }
  return doc;
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
    v.verdict = verify_plan(nest, v.plan.plan);
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
      verdict = verify_plan(nest, cg.plan.plan);
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

Json codegen_json(const CodegenOutcome& outcome, bool include_source) {
  const CodegenResult& cg = outcome.code;
  Json jcg = Json::object();
  jcg.set("plan", outcome.plan.plan.str());
  jcg.set("certified", true);
  jcg.set("transform", transform_json(cg.combined));
  if (!cg.tile_sizes.empty()) {
    Json jt = Json::array();
    for (Int s : cg.tile_sizes) jt.push(s);
    jcg.set("tile_sizes", std::move(jt));
  }
  jcg.set("iterations", cg.iterations);
  jcg.set("original_cells", cg.original_cells);
  jcg.set("window_cells", cg.window_cells);
  jcg.set("mws_total", cg.mws_total);
  jcg.set("footprint_ratio", cg.footprint_ratio());
  Json jbufs = Json::array();
  for (const BufferPlan& b : cg.buffers) {
    jbufs.push(Json::object()
                   .set("name", b.name)
                   .set("declared", b.declared)
                   .set("region", b.region)
                   .set("mws", b.mws)
                   .set("modulus", b.modulus)
                   .set("collision_free", b.collision_free)
                   .set("cold_loads", b.cold_loads)
                   .set("writebacks", b.writebacks));
  }
  jcg.set("buffers", std::move(jbufs));
  if (include_source) jcg.set("c", cg.c_source);
  if (!outcome.no_compiler.empty()) {
    jcg.set("run", Json::object()
                       .set("compiled", false)
                       .set("detail", outcome.no_compiler));
  } else if (const std::optional<RunVerdict>& v = outcome.run) {
    // The verdict is deterministic (its counters depend only on the source
    // and the plan); the wall clocks stay out.
    Json jr = Json::object();
    jr.set("compiled", v->compiled)
        .set("ran", v->ran)
        .set("identical", v->identical)
        .set("sink_match", v->sink_match)
        .set("mws_ok", v->mws_ok)
        .set("traffic_ok", v->traffic_ok)
        .set("status", v->status)
        .set("loads", v->loads)
        .set("stores", v->stores)
        .set("reloads", v->reloads)
        .set("mws_measured", v->mws_measured);
    if (!v->ok()) jr.set("detail", v->detail);
    jcg.set("run", std::move(jr));
  }
  return jcg;
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

Json mrc_json(const MrcOutcome& outcome) {
  Json jm = mrc_json(outcome.curve, outcome.capacities);
  jm.set("plan", outcome.plan.plan.str());
  if (!outcome.plan.method.empty()) jm.set("method", outcome.plan.method);
  jm.set("transform", transform_json(outcome.transform));
  return jm;
}

}  // namespace lmre
