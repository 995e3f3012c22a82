#include "runtime/session.h"

#include <bit>

#include "diag/diagnostic.h"
#include "exact/trace_engine.h"
#include "ir/parser.h"
#include "lint/lint.h"
#include "program/program.h"
#include "runtime/handlers.h"
#include "support/json_writer.h"
#include "support/parallel_for.h"
#include "symbolic/derive.h"
#include "verify/certificate.h"

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

// First capacity of a payload string: most payloads fit, and a codegen
// payload's C source grows it a few times at most.
constexpr size_t kPayloadReserve = 2048;

// File-name-free diagnostic records (the cache key ignores file names, so
// the payload must too; callers attach the name when rendering).
void diags_json(JsonWriter& w, const std::vector<Diagnostic>& diags) {
  w.begin_array();
  for (const Diagnostic& d : diags) {
    w.begin_object();
    if (d.span.valid()) w.field("column", d.span.column);
    w.field("id", d.id);
    if (d.span.valid()) w.field("line", d.span.line);
    w.field("message", d.message);
    if (!d.phase.empty()) w.field("phase", d.phase);
    w.field("severity", to_string(d.severity));
    w.end_object();
  }
  w.end_array();
}

void lint_json(JsonWriter& w, const LintResult& lint) {
  w.begin_object().key("diagnostics");
  diags_json(w, lint.diagnostics);
  w.field("errors", static_cast<Int>(lint.count(Severity::kError)))
      .field("notes", static_cast<Int>(lint.count(Severity::kNote)))
      .field("warnings", static_cast<Int>(lint.count(Severity::kWarning)))
      .end_object();
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
    // No fallback engine remains; the counter stays, at 0, while
    // perfbench's per-layer list still reads it.
    metrics_.count("oracle.fallback_runs", 0);
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

// Every section a request's kind adds to its payload, computed before any
// of the payload is written (the sections interleave with the common keys
// in key order).
struct KindOutcome {
  ExitCode status = ExitCode::kSuccess;
  std::optional<AnalyzeOutcome> analyze;
  std::optional<CodegenOutcome> codegen;
  std::optional<MrcOutcome> mrc;
  std::optional<OptimizeOutcome> optimize;
  std::optional<SymbolicResult> symbolic;
  std::optional<VerifyOutcome> verify;
};

// Runs the request kind's handlers.
KindOutcome run_kind(const AnalysisRequest& req, const Program& program,
                     const RunOptions& stage, TraceArena& arena,
                     Metrics& metrics) {
  using Kind = AnalysisRequest::Kind;
  KindOutcome k;
  switch (req.kind()) {
    case Kind::kLint:
      break;
    case Kind::kSymbolic:
      k.symbolic = run_symbolic(program, metrics);
      if (!k.symbolic->usable()) k.status = ExitCode::kDiagnostics;
      break;
    case Kind::kVerify:
      k.verify = run_verify(program, req.verify()->plan, stage, arena, metrics);
      if (!k.verify->verdict.certified) k.status = ExitCode::kDiagnostics;
      break;
    case Kind::kCodegen:
      k.codegen = run_codegen(program, *req.codegen(), stage, arena, metrics);
      if (!k.codegen->ok()) k.status = ExitCode::kFailure;
      break;
    case Kind::kMrc:
      k.mrc = run_mrc(program, *req.mrc(), stage, arena, metrics);
      break;
    case Kind::kAnalyze:
    case Kind::kFull:
      k.analyze = run_analyze(program, stage, arena, metrics);
      // kFull on a program: the analysis section is the result.
      if (req.kind() == Kind::kAnalyze || !k.analyze->report) break;
      [[fallthrough]];
    case Kind::kOptimize: {
      const AnalysisRequest::Optimize* o = req.optimize();
      k.optimize = run_optimize(program, o ? o->objective : std::string(), stage,
                                arena, metrics);
      break;
    }
  }
  return k;
}

// The payload object: the common keys (kind, lint, phases) and the kind's
// sections, in ascending key order.
void payload_json(JsonWriter& w, AnalysisRequest::Kind kind,
                  const Program& program, const LintResult& lint,
                  const KindOutcome& k) {
  const bool program_section = k.analyze && !k.analyze->report;
  w.begin_object();
  if (k.analyze && !program_section) {
    w.key("analysis");
    analysis_json(w, program, *k.analyze);
  }
  if (k.codegen) {
    w.key("codegen");
    codegen_json(w, *k.codegen);
  }
  w.field("kind", to_string(kind)).key("lint");
  lint_json(w, lint);
  if (k.mrc) {
    w.key("mrc");
    mrc_json(w, *k.mrc);
  }
  if (k.optimize) {
    w.key("optimize");
    optimize_json(w, *k.optimize);
  }
  w.field("phases", static_cast<Int>(program.phase_count()));
  if (program_section) {
    w.key("program");
    analysis_json(w, program, *k.analyze);
  }
  if (k.symbolic) {
    w.key("symbolic");
    symbolic_json(w, *k.symbolic);
  }
  if (k.verify) {
    w.key("verify");
    certificate_json(w, program.phase_nest(0), k.verify->verdict);
    w.key("verify_diagnostics");
    diags_json(w, k.verify->diagnostics);
  }
  w.end_object();
}

}  // namespace

AnalysisSession::AnalysisSession(SessionOptions opts)
    : AnalysisSession(std::move(opts), nullptr, nullptr) {}

AnalysisSession::AnalysisSession(SessionOptions opts,
                                 std::shared_ptr<ResultCache> cache,
                                 std::shared_ptr<Metrics> metrics)
    : opts_(std::move(opts)),
      cache_(cache ? std::move(cache)
                   : std::make_shared<ResultCache>(opts_.cache_config())),
      metrics_(metrics ? std::move(metrics) : std::make_shared<Metrics>()),
      runs_total_(metrics_->counter_handle("runs.total")),
      runs_cached_(metrics_->counter_handle("runs.cached")) {}

namespace {

bool is_space(char c) {
  // std::isspace in the "C" locale (lmre never sets another).
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// FNV-1a over the canonical form of `source` -- `#` comments stripped,
// whitespace runs collapsed to one space, none leading or trailing --
// continuing from `h`.  Byte for byte the hash of the canonical string,
// which is never built.
std::uint64_t fnv1a_canonical(std::string_view source, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  bool started = false;
  bool pending_space = false;
  for (size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (c == '#') {
      // The comment runs to its newline, which is whitespace.
      const size_t nl = source.find('\n', i);
      if (nl == std::string_view::npos) break;
      i = nl;
      pending_space = true;
      continue;
    }
    if (is_space(c)) {
      pending_space = true;
      continue;
    }
    if (pending_space && started) {
      h ^= static_cast<unsigned char>(' ');
      h *= kPrime;
    }
    pending_space = false;
    started = true;
    h ^= static_cast<unsigned char>(c);
    h *= kPrime;
  }
  return h;
}

}  // namespace

std::uint64_t AnalysisSession::request_key(const AnalysisRequest& req) const {
  // threads is deliberately absent: it is the batch fan-out width, which
  // never changes a result, so a warm hit is valid at any --threads value.
  std::uint64_t h = fnv1a(kHashSalt);
  h = fnv1a_canonical(req.source, h);
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
                                             ExitCode* status) {
  *status = ExitCode::kSuccess;
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

    LintResult lint;
    {
      Metrics::ScopedTimer t = metrics_->time("stage.lint");
      lint = lint_program(program, &smap);
    }
    KindOutcome outcome;
    if (lint.has_errors() || (opts_.run.strict && lint.has_warnings())) {
      outcome.status = ExitCode::kDiagnostics;
    } else {
      outcome = run_kind(req, program, opts_.run, arena, *metrics_);
    }
    std::string payload;
    payload.reserve(kPayloadReserve);
    JsonWriter w(payload);
    payload_json(w, req.kind(), program, lint, outcome);
    *status = outcome.status;
    return payload;
  } catch (const Refusal& e) {
    *status = e.status();
    return error_json(e.code(), e.what()).set("kind", to_string(req.kind())).dump();
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

Json error_json(const char* kind, const std::string& message, int line,
                int column) {
  Json err = Json::object();
  err.set("kind", kind).set("message", message);
  if (line > 0) err.set("line", line).set("column", column);
  return Json::object().set("error", std::move(err));
}

std::shared_ptr<const CachedEntry> AnalysisSession::recall_resident(
    std::uint64_t key) {
  std::shared_ptr<const CachedEntry> hit = cache_->get_resident(key);
  if (hit) {
    runs_total_.add();
    runs_cached_.add();
  }
  return hit;
}

AnalysisResult AnalysisSession::run(const AnalysisRequest& req) {
  AnalysisResult res;
  res.key = request_key(req);
  runs_total_.add();
  if (std::optional<CachedEntry> hit = cache_->get(res.key)) {
    runs_cached_.add();
    res.status = static_cast<ExitCode>(hit->status);
    res.cache_hit = true;
    res.payload = std::move(hit->payload);
    return res;
  }
  metrics_->count("runs.computed");
  Metrics::ScopedTimer t = metrics_->time("stage.total");
  ExitCode status = ExitCode::kSuccess;
  res.payload = compute_payload(req, &status);
  res.status = status;
  cache_->put(res.key, CachedEntry{to_int(status), res.payload});
  return res;
}

std::vector<AnalysisResult> AnalysisSession::run_batch(
    const std::vector<AnalysisRequest>& requests) {
  metrics_->count("batch.calls");
  metrics_->count("batch.files", static_cast<Int>(requests.size()));
  Metrics::ScopedTimer t = metrics_->time("stage.batch");
  // The fan-out owns the thread budget; each request runs on one thread.
  // Results are positional, so output order never depends on scheduling.
  return parallel_map<AnalysisResult>(
      static_cast<Int>(requests.size()), opts_.run.threads,
      [&](Int i) { return run(requests[static_cast<size_t>(i)]); });
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
