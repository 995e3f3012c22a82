#include "runtime/session.h"

#include <bit>
#include <cctype>
#include <optional>

#include "analysis/report.h"
#include "codegen/codegen.h"
#include "codegen/driver.h"
#include "diag/diagnostic.h"
#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "lint/lint.h"
#include "mrc/mrc.h"
#include "program/program.h"
#include "support/parallel_for.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"
#include "verify/certificate.h"
#include "verify/verify.h"

namespace lmre {

const char* to_string(AnalysisRequest::Kind kind) {
  for (const AnalysisKindInfo& info : kAnalysisKinds) {
    if (info.kind == kind) return info.name;
  }
  return "unknown";
}

std::optional<AnalysisRequest::Kind> kind_from_string(std::string_view name) {
  for (const AnalysisKindInfo& info : kAnalysisKinds) {
    if (name == info.name) return info.kind;
  }
  return std::nullopt;
}

std::string kind_names_joined(const char* sep) {
  std::string out;
  for (const AnalysisKindInfo& info : kAnalysisKinds) {
    if (!out.empty()) out += sep;
    out += info.name;
  }
  return out;
}

void AnalysisRequest::set_kind(Kind kind) {
  switch (kind) {
    case Kind::kLint: options = Lint{}; return;
    case Kind::kAnalyze: options = Analyze{}; return;
    case Kind::kOptimize: options = Optimize{}; return;
    case Kind::kFull: options = Full{}; return;
    case Kind::kSymbolic: options = Symbolic{}; return;
    case Kind::kVerify: options = Verify{}; return;
    case Kind::kCodegen: options = Codegen{}; return;
    case Kind::kMrc: options = Mrc{}; return;
  }
  throw InvalidArgument("AnalysisRequest::set_kind: unknown kind");
}

const std::string& AnalysisRequest::plan_spec() const {
  static const std::string empty;
  if (const Verify* v = verify()) return v->plan;
  if (const Codegen* c = codegen()) return c->plan;
  if (const Mrc* m = mrc()) return m->plan;
  return empty;
}

namespace {

// Version tag mixed into every content hash: bump when the payload schema
// changes so stale disk caches invalidate themselves.
constexpr const char* kHashSalt = "lmre-result-v4";

Json error_json(const char* kind, const std::string& message, int line = 0,
                int column = 0) {
  Json err = Json::object();
  err.set("kind", kind).set("message", message);
  if (line > 0) err.set("line", line).set("column", column);
  return Json::object().set("error", std::move(err));
}

// File-name-free diagnostic record (the cache key ignores file names, so
// the payload must too; callers attach the name when rendering).
Json diag_json(const Diagnostic& d) {
  Json j = Json::object();
  j.set("id", d.id).set("severity", to_string(d.severity)).set("message", d.message);
  if (d.span.valid()) j.set("line", d.span.line).set("column", d.span.column);
  if (!d.phase.empty()) j.set("phase", d.phase);
  return j;
}

Json lint_json(const LintResult& lint) {
  Json diags = Json::array();
  for (const auto& d : lint.diagnostics) diags.push(diag_json(d));
  return Json::object()
      .set("errors", static_cast<Int>(lint.count(Severity::kError)))
      .set("warnings", static_cast<Int>(lint.count(Severity::kWarning)))
      .set("notes", static_cast<Int>(lint.count(Severity::kNote)))
      .set("diagnostics", std::move(diags));
}

Json transform_json(const IntMat& t) {
  Json rows = Json::array();
  for (size_t r = 0; r < t.rows(); ++r) {
    Json row = Json::array();
    for (size_t c = 0; c < t.cols(); ++c) row.push(t(r, c));
    rows.push(std::move(row));
  }
  return rows;
}

Json analysis_json(const LoopNest& nest, const MemoryReport& rep,
                   const std::optional<TraceStats>& exact) {
  Json doc = Json::object();
  doc.set("depth", static_cast<Int>(nest.depth()));
  doc.set("iterations", nest.iteration_count());
  doc.set("default_memory", rep.default_memory);
  doc.set("distinct_estimate", rep.distinct_estimate_total);
  if (rep.mws_estimate_total) doc.set("mws_estimate", *rep.mws_estimate_total);
  if (exact) {
    doc.set("distinct_exact", exact->distinct_total);
    doc.set("mws_exact", exact->mws_total);
  } else {
    doc.set("exact_skipped", true);
  }

  // rep.arrays holds referenced arrays in ArrayId order; walk ids in step
  // so per-array exact stats (keyed by id) line up.
  Json arrays = Json::array();
  size_t next = 0;
  for (ArrayId id = 0; id < nest.arrays().size() && next < rep.arrays.size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    const ArrayReport& ar = rep.arrays[next++];
    Json ja = Json::object();
    ja.set("name", ar.name).set("declared", ar.declared);
    if (ar.distinct_estimate) ja.set("distinct_estimate", *ar.distinct_estimate);
    if (ar.distinct_upper) ja.set("distinct_upper", *ar.distinct_upper);
    if (ar.distinct_lower) ja.set("distinct_lower", *ar.distinct_lower);
    if (ar.mws_estimate) ja.set("mws_estimate", *ar.mws_estimate);
    if (exact) {
      auto dit = exact->distinct.find(id);
      ja.set("distinct_exact", dit == exact->distinct.end() ? 0 : dit->second);
      auto mit = exact->mws.find(id);
      ja.set("mws_exact", mit == exact->mws.end() ? 0 : mit->second);
    }
    arrays.push(std::move(ja));
  }
  doc.set("arrays", std::move(arrays));
  return doc;
}

// Folds a request's dense-engine instrumentation into the shared registry
// as `oracle.*` counters and peak gauges (visible in `batch --metrics` and
// the serve metrics snapshot).  Runs on scope exit so every compute path --
// including the error returns -- reports.
class OracleStatsExporter {
 public:
  OracleStatsExporter(Metrics& metrics, const TraceArena& arena)
      : metrics_(metrics), arena_(arena) {}
  ~OracleStatsExporter() {
    const OracleStats& s = arena_.stats();
    metrics_.count("oracle.runs", s.runs);
    metrics_.count("oracle.fallback_runs", s.fallback_runs);
    metrics_.count("oracle.dense_stores", s.dense_stores);
    metrics_.count("oracle.sparse_stores", s.sparse_stores);
    metrics_.count("oracle.elements", s.elements);
    metrics_.count("oracle.accesses", s.accesses);
    metrics_.count("oracle.sparse_probes", s.sparse_probes);
    metrics_.count("oracle.sparse_ops", s.sparse_ops);
    metrics_.gauge_max("oracle.table_occupancy_peak", s.table_occupancy_peak);
    metrics_.gauge_max("oracle.arena_high_water_bytes",
                       static_cast<double>(s.arena_high_water_bytes));
  }
  OracleStatsExporter(const OracleStatsExporter&) = delete;
  OracleStatsExporter& operator=(const OracleStatsExporter&) = delete;

 private:
  Metrics& metrics_;
  const TraceArena& arena_;
};

}  // namespace

AnalysisSession::AnalysisSession(SessionOptions opts)
    : AnalysisSession(std::move(opts), nullptr, nullptr) {}

AnalysisSession::AnalysisSession(SessionOptions opts,
                                 std::shared_ptr<ResultCache> cache,
                                 std::shared_ptr<Metrics> metrics)
    : opts_(std::move(opts)),
      cache_(std::move(cache)),
      metrics_(std::move(metrics)) {
  if (!cache_) {
    cache_ = std::make_shared<ResultCache>(opts_.cache_config());
  }
  if (!metrics_) metrics_ = std::make_shared<Metrics>();
}

std::string AnalysisSession::canonicalize(const std::string& source) {
  std::string out;
  out.reserve(source.size());
  bool in_comment = false;
  bool pending_space = false;
  for (char c : source) {
    if (c == '\n') in_comment = false;
    if (in_comment) continue;
    if (c == '#') {
      in_comment = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += c;
  }
  return out;
}

std::uint64_t AnalysisSession::request_key(const AnalysisRequest& req) const {
  // threads is deliberately absent: results are bit-identical across
  // thread counts, so a warm hit is valid at any --threads value.
  std::uint64_t h = fnv1a(kHashSalt);
  h = fnv1a(canonicalize(req.source), h);
  h = fnv1a("|kind=", h);
  h = fnv1a(to_string(req.kind()), h);
  // Per-kind options: every result-affecting field, nothing else.
  if (const AnalysisRequest::Verify* v = req.verify()) {
    h = fnv1a("|plan=", h);
    h = fnv1a(v->plan, h);
  }
  if (const AnalysisRequest::Codegen* c = req.codegen()) {
    h = fnv1a("|plan=", h);
    h = fnv1a(c->plan, h);
    h = fnv1a(c->run ? "|run" : "|emit", h);
    h = fnv1a("|cc=", h);
    h = fnv1a(c->cc, h);
  }
  if (const AnalysisRequest::Optimize* o = req.optimize()) {
    h = fnv1a("|objective=", h);
    h = fnv1a(o->objective, h);
  }
  if (const AnalysisRequest::Mrc* m = req.mrc()) {
    h = fnv1a("|plan=", h);
    h = fnv1a(m->plan, h);
    // The exact bit pattern of the rate: any change to it is a different
    // sample, hence a different result.
    h = fnv1a("|rate=", h);
    h = fnv1a(std::to_string(std::bit_cast<std::uint64_t>(m->sample_rate)), h);
    // Capacities shape the emitted curve, so they salt the key too.
    h = fnv1a("|caps=", h);
    for (Int c : m->capacities) h = fnv1a(std::to_string(c) + ",", h);
  }
  h = fnv1a("|verify=", h);
  h = fnv1a(std::to_string(opts_.run.verify_limit), h);
  h = fnv1a(opts_.run.strict ? "|strict" : "|lax", h);
  return h;
}

std::string AnalysisSession::compute_payload(const AnalysisRequest& req,
                                             int threads, ExitCode* status) {
  using Kind = AnalysisRequest::Kind;
  *status = ExitCode::kSuccess;
  Json result = Json::object();
  result.set("kind", to_string(req.kind()));
  // One reusable arena per request: every oracle call below (analysis
  // simulate, optimize verify loop, before/after re-scoring) shares its
  // allocation footprint, and the exporter publishes the instrumentation.
  TraceArena arena;
  OracleStatsExporter exporter(*metrics_, arena);
  try {
    ProgramSourceMap smap;
    Program program;
    {
      Metrics::ScopedTimer t = metrics_->time("stage.parse");
      program = parse_program(req.source, &smap);
    }
    result.set("phases", static_cast<Int>(program.phase_count()));

    LintResult lint;
    {
      Metrics::ScopedTimer t = metrics_->time("stage.lint");
      lint = lint_program(program, &smap);
    }
    result.set("lint", lint_json(lint));
    if (lint.has_errors() || (opts_.run.strict && lint.has_warnings())) {
      *status = ExitCode::kDiagnostics;
      return result.dump();
    }
    if (req.kind() == Kind::kLint) return result.dump();

    if (req.kind() == Kind::kSymbolic) {
      // Closed-form path: O(1) in the iteration volume, no oracle run.
      if (program.phase_count() != 1) {
        *status = ExitCode::kFailure;
        return error_json("unsupported", "symbolic analysis works on single-nest sources")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      SymbolicResult sym;
      {
        Metrics::ScopedTimer t = metrics_->time("stage.symbolic");
        sym = symbolic_analysis(program.phase_nest(0));
      }
      result.set("symbolic", symbolic_json(sym));
      if (!sym.usable()) *status = ExitCode::kDiagnostics;
      return result.dump();
    }

    RunOptions stage = opts_.run;
    stage.threads = threads;
    const bool single = program.phase_count() == 1;

    if (req.kind() == Kind::kVerify) {
      if (!single) {
        *status = ExitCode::kFailure;
        return error_json("unsupported", "verify works on single-nest sources")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      const LoopNest& nest = program.phase_nest(0);
      const std::string& plan_spec = req.plan_spec();
      VerifyPlan plan;
      std::string origin = "supplied plan";
      if (!plan_spec.empty()) {
        std::string perr;
        std::optional<VerifyPlan> parsed = parse_plan_spec(plan_spec, &perr);
        if (!parsed) {
          *status = ExitCode::kUsage;
          return error_json("bad_plan", "bad plan spec: " + perr)
              .set("kind", to_string(req.kind()))
              .dump();
        }
        plan = std::move(*parsed);
      } else {
        // Audit mode: certify the plan the optimizer itself would emit.
        OptimizeResult opt;
        {
          Metrics::ScopedTimer t = metrics_->time("stage.optimize");
          opt = optimize_locality(nest, minimizer_options(stage), arena);
        }
        plan.steps = {opt.transform};
        origin = "optimize plan (method '" + opt.method + "')";
      }
      VerifyResult verdict;
      {
        Metrics::ScopedTimer t = metrics_->time("stage.verify");
        verdict = verify_plan(nest, plan);
      }
      DiagnosticEngine engine;
      emit_verify_diagnostics(nest, verdict, origin, /*parallel_notes=*/true,
                              engine);
      Json diags = Json::array();
      for (const auto& d : engine.diagnostics()) diags.push(diag_json(d));
      result.set("verify", certificate_json(nest, verdict));
      result.set("verify_diagnostics", std::move(diags));
      if (!verdict.certified) *status = ExitCode::kDiagnostics;
      return result.dump();
    }

    if (req.kind() == Kind::kCodegen) {
      if (!single) {
        *status = ExitCode::kFailure;
        return error_json("unsupported", "codegen works on single-nest sources")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      const LoopNest& nest = program.phase_nest(0);
      const AnalysisRequest::Codegen& copt = *req.codegen();
      VerifyPlan plan;
      std::string origin = "identity plan";
      bool need_verify = false;
      if (copt.plan == "auto") {
        // The optimizer's own plan, re-certified below like `optimize`.
        OptimizeResult opt;
        {
          Metrics::ScopedTimer t = metrics_->time("stage.optimize");
          opt = optimize_locality(nest, minimizer_options(stage), arena);
        }
        plan.steps = {opt.transform};
        origin = "optimize plan (method '" + opt.method + "')";
        need_verify = true;
      } else if (!copt.plan.empty()) {
        std::string perr;
        std::optional<VerifyPlan> parsed = parse_plan_spec(copt.plan, &perr);
        if (!parsed) {
          *status = ExitCode::kUsage;
          return error_json("bad_plan", "bad plan spec: " + perr)
              .set("kind", to_string(req.kind()))
              .dump();
        }
        plan = std::move(*parsed);
        origin = "supplied plan";
        need_verify = true;
      }
      // Only certified plans are ever lowered: an uncertifiable spec is a
      // refusal, never silently-emitted wrong code.
      if (need_verify) {
        VerifyResult verdict;
        {
          Metrics::ScopedTimer t = metrics_->time("stage.verify");
          verdict = verify_plan(nest, plan);
        }
        if (!verdict.certified) {
          *status = ExitCode::kDiagnostics;
          return error_json("uncertified",
                            origin + " " + plan.str() +
                                " cannot be certified; codegen refuses "
                                "uncertified plans")
              .set("kind", to_string(req.kind()))
              .dump();
        }
      }
      CodegenResult cg;
      {
        Metrics::ScopedTimer t = metrics_->time("stage.codegen");
        CodegenOptions eopts;
        eopts.trace_limit = stage.verify_limit;
        cg = emit_c(nest, plan, eopts);
      }
      Json jcg = Json::object();
      jcg.set("plan", plan.str());
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
      jcg.set("c", cg.c_source);
      if (copt.run) {
        // The run verdict is deterministic (counters depend only on the
        // source and the plan), so it may live in the cached payload; wall
        // clocks stay out -- the CLI reports those from live runs only.
        Json jr = Json::object();
        std::string cc = find_cc(copt.cc);
        if (cc.empty()) {
          *status = ExitCode::kFailure;
          jr.set("compiled", false)
              .set("detail", "no usable C compiler (" +
                                 (copt.cc.empty() ? std::string("cc") : copt.cc) +
                                 ") on PATH");
        } else {
          RunVerdict v = compile_and_run(cg.c_source, cc);
          jr.set("compiled", v.compiled)
              .set("ran", v.ran)
              .set("identical", v.identical)
              .set("sink_match", v.sink_match)
              .set("mws_ok", v.mws_ok)
              .set("traffic_ok", v.traffic_ok)
              .set("status", v.status)
              .set("loads", v.loads)
              .set("stores", v.stores)
              .set("reloads", v.reloads)
              .set("mws_measured", v.mws_measured);
          if (!v.ok()) {
            *status = ExitCode::kFailure;
            jr.set("detail", v.detail);
          }
        }
        jcg.set("run", std::move(jr));
      }
      result.set("codegen", std::move(jcg));
      return result.dump();
    }

    if (req.kind() == Kind::kMrc) {
      if (!single) {
        *status = ExitCode::kFailure;
        return error_json("unsupported", "mrc works on single-nest sources")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      const LoopNest& nest = program.phase_nest(0);
      const AnalysisRequest::Mrc& mopt = *req.mrc();
      if (!(mopt.sample_rate > 0.0) || mopt.sample_rate > 1.0) {
        *status = ExitCode::kUsage;
        return error_json("bad_sample_rate", "sample rate must be in (0, 1]")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      for (Int c : mopt.capacities) {
        if (c < 0) {
          *status = ExitCode::kUsage;
          return error_json("bad_capacities",
                            "capacities must be non-negative integers")
              .set("kind", to_string(req.kind()))
              .dump();
        }
      }
      // Resolve the execution order.  MRC measures an order, it does not
      // certify one -- legality questions belong to the verify kind.
      IntMat transform = IntMat::identity(nest.depth());
      std::string plan_str = "identity";
      std::string method;
      if (mopt.plan == "auto") {
        OptimizeResult opt;
        {
          Metrics::ScopedTimer t = metrics_->time("stage.optimize");
          opt = optimize_locality(nest, minimizer_options(stage), arena);
        }
        transform = opt.transform;
        method = opt.method;
        plan_str = transform.str();
      } else if (!mopt.plan.empty()) {
        std::string perr;
        std::optional<VerifyPlan> parsed = parse_plan_spec(mopt.plan, &perr);
        if (!parsed) {
          *status = ExitCode::kUsage;
          return error_json("bad_plan", "bad plan spec: " + perr)
              .set("kind", to_string(req.kind()))
              .dump();
        }
        if (parsed->has_tiling()) {
          *status = ExitCode::kUsage;
          return error_json("bad_plan",
                            "mrc measures unimodular execution orders; "
                            "tiling chunks are not supported")
              .set("kind", to_string(req.kind()))
              .dump();
        }
        transform = parsed->combined(nest.depth());
        plan_str = parsed->str();
      }
      // Sampling thins the distance structure, not the trace: both modes
      // walk every iteration, so the volume gate applies regardless.
      const bool ident = transform == IntMat::identity(nest.depth());
      if (nest.iteration_count() > stage.verify_limit ||
          (!ident &&
           transformed_scan_volume(nest, transform) > stage.verify_limit)) {
        *status = ExitCode::kFailure;
        return error_json("too_large",
                          "mrc needs an exhaustive trace; iteration volume "
                          "exceeds the verify limit")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      MrcOptions mo;
      mo.transform = ident ? nullptr : &transform;
      mo.sample_rate = mopt.sample_rate;
      MrcResult m;
      {
        Metrics::ScopedTimer t = metrics_->time("stage.mrc");
        m = compute_mrc(nest, mo, arena);
      }
      std::vector<Int> caps = mopt.capacities;
      if (caps.empty()) caps = default_mrc_capacities(m);
      Json jm = mrc_json(m, caps);
      jm.set("plan", plan_str);
      if (!method.empty()) jm.set("method", method);
      jm.set("transform", transform_json(transform));
      result.set("mrc", std::move(jm));
      return result.dump();
    }

    if (req.kind() == Kind::kAnalyze || req.kind() == Kind::kFull) {
      if (single) {
        const LoopNest& nest = program.phase_nest(0);
        MemoryReport rep;
        {
          Metrics::ScopedTimer t = metrics_->time("stage.estimate");
          rep = analyze_memory(nest, /*with_oracle=*/false);
        }
        std::optional<TraceStats> exact;
        if (nest.iteration_count() <= stage.verify_limit) {
          Metrics::ScopedTimer t = metrics_->time("stage.mws");
          exact = simulate(nest, stage.threads, arena);
        }
        result.set("analysis", analysis_json(nest, rep, exact));
      } else {
        Json prog = Json::object();
        Int iterations = 0;
        for (size_t k = 0; k < program.phase_count(); ++k) {
          iterations = checked_add(iterations, program.phase_nest(k).iteration_count());
        }
        prog.set("iterations", iterations);
        if (iterations <= stage.verify_limit) {
          Metrics::ScopedTimer t = metrics_->time("stage.mws");
          ProgramStats stats = program.simulate();
          prog.set("default_memory", stats.default_memory);
          prog.set("distinct_exact", stats.distinct_total);
          prog.set("mws_exact", stats.mws_total);
          Json phases = Json::array();
          for (size_t k = 0; k < program.phase_count(); ++k) {
            phases.push(Json::object()
                            .set("name", program.phase_name(k))
                            .set("start", stats.phase_start[k])
                            .set("handoff", stats.handoff[k])
                            .set("mws", stats.phase_mws[k]));
          }
          prog.set("phases", std::move(phases));
        } else {
          prog.set("exact_skipped", true);
        }
        result.set("program", std::move(prog));
      }
    }

    if (req.kind() == Kind::kOptimize || req.kind() == Kind::kFull) {
      if (!single) {
        if (req.kind() == Kind::kOptimize) {
          *status = ExitCode::kFailure;
          return error_json("unsupported", "optimize works on single-nest sources")
              .set("kind", to_string(req.kind()))
              .dump();
        }
        // kFull on a program: the analysis section above is the result.
        return result.dump();
      }
      const LoopNest& nest = program.phase_nest(0);
      const AnalysisRequest::Optimize* oopt = req.optimize();
      std::optional<ObjectiveSpec> objective =
          parse_objective_spec(oopt ? oopt->objective : std::string());
      if (!objective) {
        *status = ExitCode::kUsage;
        return error_json("bad_objective",
                          "bad objective spec '" + oopt->objective +
                              "' (want mws or miss-ratio:<capacity>)")
            .set("kind", to_string(req.kind()))
            .dump();
      }
      OptimizeResult res;
      std::optional<MissRatioPlan> mr;
      {
        Metrics::ScopedTimer t = metrics_->time("stage.optimize");
        if (objective->miss_ratio) {
          mr = optimize_miss_ratio(nest, objective->capacity,
                                   minimizer_options(stage), arena);
          if (!mr) {
            *status = ExitCode::kFailure;
            return error_json("too_large",
                              "miss-ratio objective needs exact re-scoring; "
                              "iteration volume exceeds the verify limit")
                .set("kind", to_string(req.kind()))
                .dump();
          }
          res.transform = mr->transform;
          res.method = mr->method;
          res.predicted_mws = predicted_mws_after(nest, res.transform);
        } else {
          res = optimize_locality(nest, minimizer_options(stage), arena);
        }
      }
      // Independent legality audit of the winning plan: the minimizer only
      // searches legal transforms, but the prover's verdict is recorded
      // regardless, and an uncertifiable plan is never shipped -- it is
      // refused under --strict, downgraded to the identity otherwise.
      VerifyPlan vplan;
      vplan.steps = {res.transform};
      VerifyResult verdict;
      {
        Metrics::ScopedTimer t = metrics_->time("stage.verify");
        verdict = verify_plan(nest, vplan);
      }
      Json opt = Json::object();
      opt.set("certified", verdict.certified);
      if (!verdict.certified) {
        if (stage.strict) {
          *status = ExitCode::kDiagnostics;
          return error_json("uncertified",
                            "optimize plan " + res.transform.str() +
                                " cannot be certified; refused under --strict")
              .set("kind", to_string(req.kind()))
              .dump();
        }
        opt.set("downgraded", true);
        opt.set("uncertified_transform", transform_json(res.transform));
        res.transform = IntMat::identity(nest.depth());
        res.method = "identity (uncertified plan downgraded)";
      }
      opt.set("method", res.method);
      opt.set("transform", transform_json(res.transform));
      opt.set("predicted_mws", res.predicted_mws);
      // Symbolic window formula for the winning plan: exact through signed
      // permutations, the paper's eq. (2) estimate for other 2-D plans.
      // Best-effort -- a decline or eval overflow just omits the field, and
      // the numeric results above stay authoritative.
      try {
        SymbolicResult sym = symbolic_analysis_transformed(nest, res.transform);
        if (sym.window_total) {
          opt.set("symbolic_window", sym.window_total->str());
          opt.set("symbolic_window_value",
                  sym.window_total->eval(sym.bound_values));
        } else if (sym.window_estimate) {
          opt.set("symbolic_window_estimate", *sym.window_estimate);
        }
      } catch (const Error&) {
      }
      if (nest.iteration_count() <= stage.verify_limit) {
        opt.set("mws_before", simulate(nest, stage.threads, arena).mws_total);
      }
      std::optional<Int> mws_after;
      if (transformed_scan_volume(nest, res.transform) <= stage.verify_limit) {
        mws_after = simulate_transformed(nest, res.transform, arena).mws_total;
        opt.set("mws_after", *mws_after);
      }
      // The chosen objective, named and valued, in every optimize envelope:
      // miss-ratio runs stay distinguishable from MWS runs.
      opt.set("objective", objective->name());
      if (objective->miss_ratio) {
        opt.set("objective_capacity", objective->capacity);
        // Re-measure on the FINAL transform so a downgrade reports the
        // shipped plan's ratio, not the refused one's.
        MrcOptions mo;
        const bool ident = res.transform == IntMat::identity(nest.depth());
        mo.transform = ident ? nullptr : &res.transform;
        double after = 0.0;
        {
          Metrics::ScopedTimer t = metrics_->time("stage.mrc");
          after = compute_mrc(nest, mo, arena)
                      .aggregate.miss_ratio(objective->capacity);
        }
        opt.set("objective_value", Json::number(after));
        opt.set("miss_ratio_before", Json::number(mr->miss_ratio_before));
        opt.set("miss_ratio_after", Json::number(after));
      } else {
        // Exact when measured, the analytic prediction otherwise.
        opt.set("objective_value", mws_after ? *mws_after : res.predicted_mws);
      }
      result.set("optimize", std::move(opt));
    }
    return result.dump();
  } catch (const ParseError& e) {
    *status = ExitCode::kDiagnostics;
    return error_json("parse", e.message(), e.line(), e.column())
        .set("kind", to_string(req.kind()))
        .dump();
  } catch (const OverflowError& e) {
    *status = ExitCode::kOverflow;
    return error_json("overflow", e.what())
        .set("kind", to_string(req.kind()))
        .dump();
  } catch (const Error& e) {
    *status = ExitCode::kFailure;
    return error_json("failure", e.what())
        .set("kind", to_string(req.kind()))
        .dump();
  }
}

AnalysisResult AnalysisSession::cached_result(std::uint64_t key,
                                              CachedEntry hit) {
  metrics_->count("runs.cached");
  AnalysisResult res;
  res.key = key;
  res.status = static_cast<ExitCode>(hit.status);
  res.cache_hit = true;
  res.payload = std::move(hit.payload);
  return res;
}

std::optional<AnalysisResult> AnalysisSession::recall_resident(
    std::uint64_t key) {
  std::optional<CachedEntry> hit = cache_->get_resident(key);
  if (!hit) return std::nullopt;
  metrics_->count("runs.total");
  return cached_result(key, std::move(*hit));
}

AnalysisResult AnalysisSession::run_with_threads(const AnalysisRequest& req,
                                                 int threads) {
  AnalysisResult res;
  res.key = request_key(req);
  metrics_->count("runs.total");
  if (std::optional<CachedEntry> hit = cache_->get(res.key)) {
    return cached_result(res.key, std::move(*hit));
  }
  metrics_->count("runs.computed");
  Metrics::ScopedTimer t = metrics_->time("stage.total");
  ExitCode status = ExitCode::kSuccess;
  res.payload = compute_payload(req, threads, &status);
  res.status = status;
  cache_->put(res.key, CachedEntry{to_int(status), res.payload});
  return res;
}

AnalysisResult AnalysisSession::run(const AnalysisRequest& req) {
  return run_with_threads(req, opts_.run.threads);
}

std::vector<AnalysisResult> AnalysisSession::run_batch(
    const std::vector<AnalysisRequest>& requests) {
  metrics_->count("batch.calls");
  metrics_->count("batch.files", static_cast<Int>(requests.size()));
  Metrics::ScopedTimer t = metrics_->time("stage.batch");
  // The fan-out owns the thread budget; each request runs its stages
  // serially (threads=1) to avoid nested pools.  Results are positional,
  // so output order never depends on scheduling.
  return parallel_map<AnalysisResult>(
      static_cast<Int>(requests.size()), opts_.run.threads,
      [&](Int i) { return run_with_threads(requests[static_cast<size_t>(i)], 1); });
}

void export_cache_gauges(Metrics& metrics, const ResultCache& cache) {
  const Int hits = cache.hits(), misses = cache.misses();
  metrics.gauge("cache.hits", static_cast<double>(hits));
  metrics.gauge("cache.misses", static_cast<double>(misses));
  metrics.gauge("cache.disk_hits", static_cast<double>(cache.disk_hits()));
  metrics.gauge("cache.evictions", static_cast<double>(cache.evictions()));
  metrics.gauge("cache.size", static_cast<double>(cache.size()));
  metrics.gauge("cache.hit_rate",
                hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) /
                          static_cast<double>(hits + misses));
  // Shard-policy aggregates (one-shard caches report them too: shards=1,
  // zero expiries/rejects -- the snapshot shape never depends on policy).
  metrics.gauge("cache.shards", static_cast<double>(cache.shard_count()));
  metrics.gauge("cache.bytes", static_cast<double>(cache.bytes()));
  metrics.gauge("cache.expired", static_cast<double>(cache.expired()));
  metrics.gauge("cache.admission_rejects",
                static_cast<double>(cache.admission_rejects()));
  metrics.gauge("cache.shard_entries_max",
                static_cast<double>(cache.shard_entries_max()));
}

Json AnalysisSession::metrics_json() {
  export_cache_gauges(*metrics_, *cache_);
  return metrics_->to_json();
}

}  // namespace lmre
