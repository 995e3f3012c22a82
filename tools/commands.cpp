#include "tools/commands.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "analysis/report.h"
#include "codegen/codegen.h"
#include "codegen/driver.h"
#include "codes/kernels.h"
#include "dependence/dependence.h"
#include "diag/diagnostic.h"
#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "lint/lint.h"
#include "mrc/mrc.h"
#include "runtime/handlers.h"
#include "runtime/session.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/text.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"
#include "verify/checker.h"
#include "verify/verify.h"

namespace lmre::tools {

namespace {

// Lint gate run at the top of every analysis verb's text rendering: errors
// abort the command with rendered diagnostics (exit kDiagnostics); warnings
// are printed and the command proceeds.  Returns nullopt to continue.
std::optional<ExitCode> lint_gate(const Program& program, const ProgramSourceMap& smap,
                                  const std::string& file, std::ostream& out) {
  LintResult lint = lint_program(program, &smap);
  out << render_text(lint.diagnostics, file, Severity::kWarning);
  if (!lint.has_errors()) return std::nullopt;
  out << render_summary(lint.diagnostics) << '\n';
  return ExitCode::kDiagnostics;
}

// Reports a refusal the way every analysis verb's text rendering does.
ExitCode refuse(const Refusal& r, std::ostream& out) {
  out << r.what() << '\n';
  return r.status();
}

// What a handler runs against from the CLI: the default run options, one
// arena, and metrics nobody reads.
struct Pipeline {
  RunOptions run;
  TraceArena arena;
  Metrics metrics;
};

// --emit=FILE: writes the C unit; false (with the message on `err`) when
// the file cannot be written.  An empty path writes nothing.
bool write_emit_file(const std::string& path, const std::string& c_source,
                     std::ostream& err) {
  if (path.empty()) return true;
  std::ofstream cf(path, std::ios::trunc);
  if (!cf) {
    err << "cannot write " << path << '\n';
    return false;
  }
  cf << c_source;
  return true;
}

constexpr const char* kExactSkipped =
    "exact window: skipped (iteration volume exceeds the verify limit)\n";

}  // namespace

ExitCode cmd_analyze(const std::string& source, std::ostream& out,
                     const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, out)) return *rc;
  Pipeline p;
  if (program.phase_count() > 1) {
    AnalyzeOutcome a = run_analyze(program, p.run, p.arena, p.metrics);
    out << "multi-phase program, " << a.iterations << " iterations\n";
    if (!a.program) {
      out << kExactSkipped;
      return ExitCode::kSuccess;
    }
    const ProgramStats& s = *a.program;
    TextTable t;
    t.header({"phase", "starts", "handoff in", "peak window"});
    for (size_t k = 0; k < program.phase_count(); ++k) {
      t.row({program.phase_name(k), with_commas(s.phase_start[k]),
             with_commas(s.handoff[k]), with_commas(s.phase_mws[k])});
    }
    out << t.render() << "whole-program window: " << s.mws_total << '\n';
    return ExitCode::kSuccess;
  }

  const LoopNest& nest = program.phase_nest(0);
  out << print_nest(nest) << '\n';
  out << summarize_dependences(analyze_dependences(nest));
  AnalyzeOutcome a = run_analyze(program, p.run, p.arena, p.metrics);
  out << '\n' << render(*a.report);
  if (!a.report->mws_exact_total) out << kExactSkipped;
  return ExitCode::kSuccess;
}

ExitCode cmd_optimize(const std::string& source, std::ostream& out,
                      const std::string& file, const std::string& objective) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, out)) return *rc;
  Pipeline p;
  OptimizeOutcome o;
  try {
    o = run_optimize(program, objective, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, out);
  }
  TransformedNest tn(program.phase_nest(0), o.plan.transform);
  if (o.uncertified) {
    out << "plan " << o.uncertified->str()
        << " cannot be certified; downgraded to identity\n";
  }
  out << "method: " << o.plan.method << "\nT = " << o.plan.transform.str()
      << "\ncertified: " << (o.verdict.certified ? "yes" : "no") << " ("
      << o.verdict.memory_deps << " memory dependences)\n\n";
  out << tn.print() << '\n';
  if (o.mws_before && o.mws_after) {
    out << "exact window: " << *o.mws_before << " -> " << *o.mws_after << '\n';
  } else {
    out << kExactSkipped;
  }
  if (o.miss_ratio) {
    out << "objective: miss-ratio at capacity " << with_commas(o.objective.capacity)
        << ": " << percent(o.miss_ratio->miss_ratio_before) << " -> "
        << percent(*o.miss_ratio_after) << " (" << o.miss_ratio->candidates
        << " candidates re-scored)\n";
  }
  if (o.symbolic_window) {
    out << "symbolic window: " << *o.symbolic_window << '\n';
  } else if (o.symbolic_window_estimate) {
    out << "symbolic window: " << *o.symbolic_window_estimate << '\n';
  }
  return ExitCode::kSuccess;
}

ExitCode cmd_distances(const std::string& source, std::ostream& out) {
  Program parsed = parse_program(source);
  const Program* program = &parsed;
  TextTable t;
  t.header({"phase", "kind", "distance", "direction", "level"});
  for (size_t k = 0; k < program->phase_count(); ++k) {
    DependenceInfo info = analyze_dependences(program->phase_nest(k));
    for (const auto& d : info.deps) {
      t.row({program->phase_name(k), to_string(d.kind), d.distance.str(),
             direction_string(d.distance), std::to_string(d.level())});
    }
    if (info.has_nonuniform()) {
      t.row({program->phase_name(k), "non-uniform", "-", "-", "-"});
    }
  }
  out << t.render();
  return ExitCode::kSuccess;
}

ExitCode cmd_series(const std::string& source, std::ostream& out,
                    const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  // Errors block like every analysis verb; warnings stay out of the CSV.
  std::ostringstream gate;
  if (auto rc = lint_gate(program, smap, file, gate)) {
    out << gate.str();
    return *rc;
  }
  if (program.phase_count() > 1) {
    out << "series works on single-nest sources\n";
    return ExitCode::kFailure;
  }
  const LoopNest& nest = program.phase_nest(0);
  std::vector<Int> series = window_series(nest, IntMat::identity(nest.depth()));
  out << "iteration,window\n";
  for (size_t t = 0; t < series.size(); ++t) {
    out << t << ',' << series[t] << '\n';
  }
  return ExitCode::kSuccess;
}

ExitCode cmd_symbolic(const std::string& source, std::ostream& out,
                      const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, out)) return *rc;
  Pipeline p;
  SymbolicResult sym;
  try {
    sym = run_symbolic(program, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, out);
  }
  const ExitCode rc = sym.usable() ? ExitCode::kSuccess : ExitCode::kDiagnostics;
  out << "symbolic bounds:";
  for (size_t k = 0; k < sym.vars; ++k) {
    out << (k == 0 ? " " : ", ") << sym.bound_names[k] << " = "
        << sym.bound_values[k];
  }
  out << '\n';

  TextTable t;
  t.header({"array", "quantity", "closed form", "value here"});
  for (const auto& a : sym.arrays) {
    if (a.distinct) {
      t.row({a.name, "distinct", a.distinct->str(),
             with_commas(a.distinct->eval(sym.bound_values))});
    }
    if (a.reuse) {
      t.row({a.name, "reuse", a.reuse->str(),
             with_commas(a.reuse->eval(sym.bound_values))});
    }
    for (const auto& d : a.dependences) {
      t.row({a.name, "volume d=" + d.distance.str(), d.volume.str(),
             with_commas(d.volume.eval(sym.bound_values))});
    }
    if (a.window) {
      t.row({a.name, "window", a.window->str(),
             with_commas(a.window->eval(sym.bound_values))});
    }
  }
  out << t.render();
  if (sym.distinct_total) {
    out << "distinct total: " << sym.distinct_total->str() << " = "
        << with_commas(sym.distinct_total->eval(sym.bound_values)) << '\n';
  }
  if (sym.reuse_total) {
    out << "reuse total:    " << sym.reuse_total->str() << " = "
        << with_commas(sym.reuse_total->eval(sym.bound_values)) << '\n';
  }
  if (sym.window_total) {
    out << "window total:   " << sym.window_total->str() << " = "
        << with_commas(sym.window_total->eval(sym.bound_values)) << '\n';
  }
  if (!sym.diagnostics.empty()) {
    out << render_text(sym.diagnostics, file, Severity::kNote);
  }
  return rc;
}

ExitCode cmd_lint(const std::string& source, const LintCliOptions& cli,
                  std::ostream& out, const std::string& file) {
  ProgramSourceMap smap;
  Program program;
  try {
    program = parse_program(source, &smap);
  } catch (const ParseError& e) {
    if (!cli.json) throw;
    // The same parse-error document every other --json verb prints.
    Json doc = error_json("parse", e.message(), e.line(), e.column());
    out << json_envelope("lint", doc.set("kind", "lint")).dump(2) << '\n';
    return ExitCode::kDiagnostics;
  }

  LintOptions opts;
  if (cli.plan) {
    opts.plan = &*cli.plan;
  } else {
    opts.audit_plan = cli.audit_plan;
  }
  if ((opts.plan != nullptr || opts.audit_plan) && program.phase_count() > 1) {
    out << "lint --plan works on single-nest sources\n";
    return ExitCode::kFailure;
  }

  LintResult res = lint_program(program, &smap, opts);
  if (cli.json) {
    Json doc = Json::object();
    doc.set("diagnostics", render_json(res.diagnostics, file));
    out << json_envelope("lint", std::move(doc)).dump(2) << '\n';
  } else {
    out << render_text(res.diagnostics, file)
        << render_summary(res.diagnostics) << '\n';
  }
  bool fail = res.has_errors() || (cli.strict && res.has_warnings());
  return fail ? ExitCode::kDiagnostics : ExitCode::kSuccess;
}

ExitCode cmd_verify(const std::string& source, const VerifyCliOptions& cli,
                    std::ostream& out, const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, out)) return *rc;
  Pipeline p;
  VerifyOutcome v;
  try {
    v = run_verify(program, cli.plan, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, out);
  }
  const LoopNest& nest = program.phase_nest(0);
  const VerifyResult& verdict = v.verdict;
  CertificateCheck check = check_certificate(nest, verdict);

  out << "plan: " << verdict.plan.str() << " (" << v.plan.origin << ")\n";
  if (verdict.structure_error.empty()) {
    out << "combined T = " << verdict.combined.str() << '\n'
        << "legal: " << (verdict.legal ? "yes" : "no")
        << ", tileable: " << (verdict.tileable ? "yes" : "no")
        << ", certified: " << (verdict.certified ? "yes" : "no")
        << ", exact: " << (verdict.exact ? "yes" : "no") << '\n'
        << "dependences: " << verdict.memory_deps << " memory / "
        << verdict.total_deps << " total\n";
    TextTable t;
    t.header({"nest", "level", "class"});
    for (const LevelClass& lc : verdict.original_levels) {
      t.row({"original", std::to_string(lc.level),
             lc.doall ? "DOALL" : (lc.exact ? "carries deps" : "unproven")});
    }
    for (const LevelClass& lc : verdict.transformed_levels) {
      t.row({"transformed", std::to_string(lc.level),
             lc.doall ? "DOALL" : (lc.exact ? "carries deps" : "unproven")});
    }
    out << t.render();
  }
  out << render_text(v.diagnostics, file)
      << render_summary(v.diagnostics) << '\n';
  out << "checker: " << (check.ok ? "ok" : "FAILED") << " ("
      << check.checked_proofs << " proofs, " << check.checked_witnesses
      << " witnesses re-validated, " << check.trusted << " trusted)\n";
  for (const std::string& f : check.failures) {
    out << "checker: " << f << '\n';
  }
  if (!check.ok) return ExitCode::kFailure;
  return verdict.certified ? ExitCode::kSuccess : ExitCode::kDiagnostics;
}

ExitCode cmd_codegen(const std::string& source, const CodegenCliOptions& cli,
                     std::ostream& out, std::ostream& err,
                     const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, out)) return *rc;
  Pipeline p;
  AnalysisRequest::Codegen copt;
  copt.plan = cli.plan;
  CodegenOutcome outcome;
  try {
    outcome = run_codegen(program, copt, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, out);
  }
  const CodegenResult& cg = outcome.code;

  if (!write_emit_file(cli.emit_file, cg.c_source, err)) return ExitCode::kFailure;
  if (cli.run) {
    run_generated(outcome, cli.cc);
    if (!outcome.no_compiler.empty()) {
      err << "codegen --run: " << outcome.no_compiler << '\n';
      return ExitCode::kFailure;
    }
  }
  const std::optional<RunVerdict>& run = outcome.run;

  out << "plan: " << outcome.plan.plan.str() << " (" << outcome.plan.origin << ")\n"
      << "combined T = " << cg.combined.str() << '\n';
  if (!cg.tile_sizes.empty()) {
    out << "tile sizes:";
    for (Int s : cg.tile_sizes) out << ' ' << s;
    out << '\n';
  }
  out << "iterations: " << with_commas(cg.iterations) << '\n'
      << "window: " << with_commas(cg.window_cells) << " buffer cells vs "
      << with_commas(cg.original_cells) << " declared (ratio "
      << cg.footprint_ratio() << "), mws_total " << cg.mws_total << '\n';
  TextTable t;
  t.header({"array", "declared", "region", "mws", "modulus", "cold loads",
            "writebacks"});
  for (const BufferPlan& b : cg.buffers) {
    t.row({b.name, with_commas(b.declared), with_commas(b.region),
           with_commas(b.mws), with_commas(b.modulus),
           with_commas(b.cold_loads), with_commas(b.writebacks)});
  }
  out << t.render();
  if (run) {
    out << "run: " << run->status << " (compile " << run->compile_ms
        << " ms, run " << run->run_ms << " ms)\n"
        << "  identical " << (run->identical ? "yes" : "no")
        << ", sink " << (run->sink_match ? "match" : "MISMATCH")
        << ", mws " << (run->mws_ok ? "ok" : "MISMATCH") << " (measured "
        << run->mws_measured << ")"
        << ", traffic " << (run->traffic_ok ? "ok" : "MISMATCH")
        << " (loads " << run->loads << ", stores " << run->stores
        << ", reloads " << run->reloads << ")\n";
    if (!run->ok() && !run->detail.empty()) {
      out << "  detail: " << run->detail << '\n';
    }
  }
  if (cli.emit_file.empty()) {
    out << "--- generated C ---\n" << cg.c_source;
  } else {
    out << "wrote " << cli.emit_file << '\n';
  }
  return outcome.ok() ? ExitCode::kSuccess : ExitCode::kFailure;
}

ExitCode cmd_mrc(const std::string& source, const MrcCliOptions& cli,
                 std::ostream& out, const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, out)) return *rc;
  Pipeline p;
  MrcOutcome outcome;
  try {
    outcome = run_mrc(program, cli, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, out);
  }
  const MrcResult& m = outcome.curve;

  const bool exact = m.sample_rate >= 1.0;
  auto weight = [&](double v) {
    if (exact) return with_commas(static_cast<Int>(std::llround(v)));
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(1) << v;
    return ss.str();
  };

  out << "plan: " << outcome.plan.plan.str();
  if (!outcome.plan.method.empty()) out << " (method '" << outcome.plan.method << "')";
  out << '\n';
  if (exact) {
    out << "mode: exact\n";
  } else {
    out << "mode: sampled at rate " << m.sample_rate << " ("
        << with_commas(m.sampled_elements) << " sampled elements, error bound "
        << percent(m.error_bound) << ")\n";
  }
  out << "accesses: " << weight(m.aggregate.total)
      << "  cold misses (distinct): " << weight(m.aggregate.cold)
      << "  knee: " << with_commas(m.knee) << '\n';

  TextTable arrays;
  arrays.header({"array", "refs", "accesses", "distinct", "knee"});
  for (const MrcArrayCurve& a : m.arrays) {
    arrays.row({a.name, with_commas(a.refs), weight(a.hist.total),
                weight(a.hist.cold), with_commas(a.hist.max_distance())});
  }
  out << arrays.render();

  TextTable curve;
  curve.header({"LRU capacity", "misses", "miss ratio"});
  for (Int c : outcome.capacities) {
    curve.row({with_commas(c), weight(m.aggregate.misses(c)),
               percent(m.aggregate.miss_ratio(c))});
  }
  out << curve.render();
  return ExitCode::kSuccess;
}

ExitCode cmd_figure2(std::ostream& out) {
  TextTable t;
  t.header({"code", "default", "MWS_unopt", "MWS_opt", "method"});
  for (auto& e : codes::figure2_suite()) {
    OptimizeResult res = optimize_locality(e.nest);
    t.row({e.name, with_commas(e.nest.default_memory()),
           with_commas(simulate(e.nest).mws_total),
           with_commas(simulate_transformed(e.nest, res.transform).mws_total),
           res.method});
  }
  out << t.render();
  return ExitCode::kSuccess;
}

namespace {

std::optional<std::string> read_source(const std::string& path, std::ostream& err) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) {
    err << "cannot open " << path << '\n';
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Expands batch inputs: a directory contributes its *.loop files; plain
/// paths pass through.  The final list is sorted (deterministic output
/// order) and deduplicated.  nullopt when a path does not exist.
std::optional<std::vector<std::string>> expand_batch_inputs(
    const std::vector<std::string>& inputs, std::ostream& err) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const auto& entry : fs::directory_iterator(input, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".loop") {
          files.push_back(entry.path().string());
        }
      }
      if (ec) {
        err << "cannot read directory " << input << '\n';
        return std::nullopt;
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      err << "cannot open " << input << '\n';
      return std::nullopt;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace

ExitCode cmd_batch(const std::vector<std::string>& inputs,
                   const BatchCliOptions& opts, std::ostream& out,
                   std::ostream& err) {
  auto files = expand_batch_inputs(inputs, err);
  if (!files) return ExitCode::kFailure;
  if (files->empty()) {
    err << "batch: no .loop files to analyze\n";
    return ExitCode::kFailure;
  }

  SessionOptions session_opts;
  session_opts.run.threads = opts.threads;
  session_opts.cache_dir = opts.cache_dir;
  AnalysisSession session(session_opts);

  std::vector<AnalysisRequest> requests;
  requests.reserve(files->size());
  for (const std::string& path : *files) {
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    requests.push_back(AnalysisRequest{std::move(*source), path,
                                       AnalysisRequest::Kind::kFull});
  }

  std::vector<AnalysisResult> results = session.run_batch(requests);

  ExitCode worst = ExitCode::kSuccess;
  Int ok = 0;
  for (const AnalysisResult& r : results) {
    if (r.status == ExitCode::kSuccess) ok += 1;
    if (to_int(r.status) > to_int(worst)) worst = r.status;
  }

  // The result document is deliberately free of cache/timing state so a
  // warm re-run is byte-identical to the cold one; --metrics carries the
  // run-dependent side.
  if (opts.json) {
    Json list = Json::array();
    for (size_t i = 0; i < results.size(); ++i) {
      list.push(Json::object()
                    .set("file", requests[i].file)
                    .set("status", to_int(results[i].status))
                    .set("status_name", to_string(results[i].status))
                    .set("result", Json::raw(results[i].payload)));
    }
    Json doc = Json::object();
    doc.set("files", std::move(list));
    doc.set("summary", Json::object()
                           .set("total", static_cast<Int>(results.size()))
                           .set("ok", ok)
                           .set("failed", static_cast<Int>(results.size()) - ok));
    out << json_envelope("batch", std::move(doc)).dump(2) << '\n';
  } else {
    TextTable t;
    t.header({"file", "status"});
    for (size_t i = 0; i < results.size(); ++i) {
      t.row({requests[i].file, to_string(results[i].status)});
    }
    out << t.render() << results.size() << " files, " << ok << " ok\n";
  }

  if (!opts.metrics_file.empty()) {
    std::ofstream mf(opts.metrics_file, std::ios::trunc);
    if (!mf) {
      err << "cannot write " << opts.metrics_file << '\n';
      return ExitCode::kFailure;
    }
    mf << json_envelope("batch-metrics", session.metrics_json()).dump(2) << '\n';
  }
  return worst;
}

namespace {

// The server a stop signal should reach.  Handlers only do the lock-free
// atomic load + request_stop (an atomic store) -- both async-signal-safe.
std::atomic<AnalysisServer*> g_active_server{nullptr};

void handle_stop_signal(int) {
  if (AnalysisServer* server = g_active_server.load()) server->request_stop();
}

}  // namespace

ExitCode cmd_serve(const ServeCliOptions& opts, std::istream& in,
                   std::ostream& out, std::ostream& err) {
  if (opts.socket.empty() && opts.tcp.empty() && !opts.stdio) {
    err << "serve: need a socket path, --tcp=HOST:PORT, or --stdio\n";
    return ExitCode::kUsage;
  }
  std::optional<HostPort> tcp_target;
  if (!opts.tcp.empty()) {
    std::string perr;
    tcp_target = parse_host_port(opts.tcp, &perr);
    if (!tcp_target) {
      err << "serve: bad --tcp address: " << perr << '\n';
      return ExitCode::kUsage;
    }
  }
  ServerOptions sopts;
  sopts.workers = opts.workers;
  sopts.queue_depth = opts.queue_depth;
  sopts.coalesce = opts.coalesce;
  sopts.session.cache_dir = opts.cache_dir;
  sopts.session.cache_shards = opts.cache_shards;
  sopts.session.cache_ttl_seconds = opts.cache_ttl;
  sopts.session.cache_byte_budget = opts.cache_bytes;
  sopts.metrics_file = opts.metrics_file;
  AnalysisServer server(sopts);

  g_active_server.store(&server);
  auto prev_int = std::signal(SIGINT, handle_stop_signal);
  auto prev_term = std::signal(SIGTERM, handle_stop_signal);

  ExitCode rc = ExitCode::kSuccess;
  if (opts.stdio) {
    server.serve_streams(in, out);
  } else if (tcp_target) {
    // Announce the bound address once the loop is listening -- with
    // --tcp=HOST:0 this is how scripts learn the kernel-assigned port.
    std::thread announcer([&server, &out, &tcp_target] {
      while (server.tcp_port() < 0 && !server.stopped()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (server.tcp_port() >= 0) {
        out << "serve: listening on " << tcp_target->host << ':'
            << server.tcp_port() << std::endl;
      }
    });
    std::string terr;
    rc = server.serve_tcp(tcp_target->host, tcp_target->port, &terr);
    server.request_stop();  // releases the announcer on bind failure
    announcer.join();
    if (rc != ExitCode::kSuccess) {
      err << "serve: " << (terr.empty() ? "cannot listen" : terr) << '\n';
    }
  } else {
    std::string uerr;
    rc = server.serve_socket(opts.socket, &uerr);
    if (rc != ExitCode::kSuccess) {
      err << "serve: cannot listen on " << opts.socket << ": " << uerr << '\n';
    }
  }

  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);
  g_active_server.store(nullptr);
  return rc;
}

ExitCode cmd_request(const std::string& source, const std::string& file,
                     const RequestCliOptions& opts, std::ostream& out,
                     std::ostream& err) {
  // Emit a v2 request: per-kind knobs (plan) ride in the "options"
  // object alongside the wire-level deadline.
  Json request = Json::object();
  request.set("id", opts.id.empty() ? file : opts.id);
  request.set("schema_version", kJsonSchemaVersion);
  request.set("kind", opts.kind);
  request.set("source", source);
  Json options = Json::object();
  if (!opts.plan.empty()) options.set("plan", opts.plan);
  if (!opts.objective.empty()) options.set("objective", opts.objective);
  if (opts.sample_rate > 0) options.set("sample_rate", opts.sample_rate);
  if (!opts.capacities.empty()) {
    Json caps = Json::array();
    for (Int c : opts.capacities) caps.push(c);
    options.set("capacities", std::move(caps));
  }
  if (opts.deadline_ms > 0) options.set("deadline_ms", opts.deadline_ms);
  if (options.size() > 0) request.set("options", std::move(options));

  int fd = -1;
  if (!opts.tcp.empty()) {
    std::string terr;
    std::optional<HostPort> target = parse_host_port(opts.tcp, &terr);
    if (!target) {
      err << "request: bad --tcp address: " << terr << '\n';
      return ExitCode::kUsage;
    }
    fd = tcp_connect(target->host, target->port, &terr);
    if (fd < 0) {
      err << "request: cannot connect to " << opts.tcp << ": " << terr << '\n';
      return ExitCode::kFailure;
    }
  } else {
    std::string uerr;
    fd = unix_connect(opts.socket, &uerr);
    if (fd < 0) {
      err << "request: cannot connect to " << opts.socket << ": " << uerr
          << '\n';
      return ExitCode::kFailure;
    }
  }

  std::string line = request.dump(0) + '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      err << "request: send failed\n";
      return ExitCode::kFailure;
    }
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);  // one request per connection; signal EOF

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
    if (response.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  size_t nl = response.find('\n');
  if (nl == std::string::npos) {
    err << "request: no response (server gone?)\n";
    return ExitCode::kFailure;
  }
  response.resize(nl);

  std::string parse_error;
  std::optional<WireValue> doc = parse_wire_json(response, &parse_error);
  const WireValue* result = doc ? doc->find("result") : nullptr;
  const WireValue* status = result ? result->find("status") : nullptr;
  if (!status || status->kind != WireValue::Kind::kNumber) {
    err << "request: malformed response: " << response << '\n';
    return ExitCode::kFailure;
  }
  if (opts.raw) {
    // Just the embedded analysis payload -- byte-identical to what `lmre
    // batch` embeds for this source, or the error message for wire errors.
    if (const WireValue* payload = result->find("result")) {
      out << payload->raw << '\n';
    } else if (const WireValue* error = result->find("error")) {
      out << error->raw << '\n';
    }
  } else {
    out << response << '\n';
  }

  auto wire = static_cast<ServeStatus>(static_cast<int>(status->number));
  switch (wire) {
    case ServeStatus::kOverloaded:
    case ServeStatus::kTimeout:
      return ExitCode::kFailure;
    case ServeStatus::kBadRequest:
      return ExitCode::kUsage;
    default:
      return static_cast<ExitCode>(static_cast<int>(wire));
  }
}

namespace {

// Build info for `lmre version`: which compiler produced this binary and
// the language standard it targeted.
std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

ExitCode cmd_version(bool json, std::ostream& out) {
  const Int cxx_standard = static_cast<Int>(__cplusplus / 100 % 100);
  if (json) {
    Json doc = Json::object();
    doc.set("schema_version", kJsonSchemaVersion);
    doc.set("compiler", compiler_string());
    doc.set("cxx_standard", cxx_standard);
    out << json_envelope("version", std::move(doc)).dump(2) << '\n';
  } else {
    out << "lmre schema_version " << kJsonSchemaVersion << '\n'
        << "build: " << compiler_string() << ", C++" << cxx_standard << '\n';
  }
  return ExitCode::kSuccess;
}

std::string usage() {
  std::string u =
      "usage: lmre <command> [args]\n"
      "  analyze   [--json] [--symbolic] <file|->\n"
      "                                dependences + memory report;\n"
      "                                --symbolic: closed-form formulas in\n"
      "                                the bounds N1..Nn (O(1) in the trip\n"
      "                                counts, declines with LMRE-E017\n"
      "                                rather than guessing)\n"
      "  optimize  [--json] [--objective=SPEC] <file|->\n"
      "                                window-minimizing transformation;\n"
      "                                --objective=miss-ratio:<capacity>\n"
      "                                re-scores the top candidates by exact\n"
      "                                LRU miss ratio at that capacity\n"
      "                                (default SPEC: mws)\n"
      "  lint      [--json] [--strict] [--plan[=\"a b; c d\"]] <file|->\n"
      "                                static diagnostics (check IDs LMRE-*);\n"
      "                                --plan re-certifies a transform plan\n"
      "                                (default: the one optimize emits)\n"
      "  verify    [--json] [--plan[=SPEC]] <file|->\n"
      "                                dependence-preservation prover: exact\n"
      "                                legality + DOALL/wavefront analysis\n"
      "                                with a machine-checkable certificate;\n"
      "                                SPEC = '|'-separated unimodular steps\n"
      "                                (rows ';', entries space/comma) plus\n"
      "                                an optional trailing tile:4,4 chunk,\n"
      "                                e.g. --plan=\"0 1; 1 0 | tile:8,8\";\n"
      "                                no --plan audits the optimizer's plan\n"
      "  codegen   [--json] [--plan[=SPEC]] [--run] [--cc=PATH]\n"
      "            [--emit=FILE] <file|->\n"
      "                                lower the nest to standalone C:\n"
      "                                original nest over full arrays +\n"
      "                                the plan's order against window-\n"
      "                                sized modulo buffers, with a built-\n"
      "                                in bit-identity and window check;\n"
      "                                bare --plan takes the optimizer's\n"
      "                                (certified) plan, --run compiles\n"
      "                                and executes the check with cc\n"
      "  mrc       [--json] [--plan[=SPEC]] [--sample-rate=R]\n"
      "            [--capacities=LIST] <file|->\n"
      "                                reuse-distance histogram + miss-ratio\n"
      "                                curve under the given execution order\n"
      "                                (bare --plan: the optimizer's plan);\n"
      "                                --sample-rate enables deterministic\n"
      "                                SHARDS-style spatial sampling with a\n"
      "                                declared error bound, --capacities\n"
      "                                picks the curve's evaluation points\n"
      "  batch     [--json] [--threads=N] [--cache-dir=D] [--metrics=FILE]\n"
      "            <dir|files...>      full pipeline over a corpus of .loop\n"
      "                                files with memoized results; --metrics\n"
      "                                writes counters/timers/cache stats;\n"
      "                                --threads: files analyzed at once\n"
      "                                (0 = all cores; output is identical\n"
      "                                for every value)\n"
      "  serve     <socket>|--stdio|--tcp=HOST:PORT [--workers=N]\n"
      "            [--queue-depth=N] [--cache-shards=N] [--cache-ttl=S]\n"
      "            [--cache-bytes=N] [--no-coalesce] [--cache-dir=D]\n"
      "            [--metrics=FILE]\n"
      "                                long-running analysis server over a\n"
      "                                Unix socket, TCP (PORT 0 = pick one,\n"
      "                                announced on stdout), or stdin/stdout\n"
      "                                with --stdio; newline-delimited JSON\n"
      "                                requests, bounded queue (full =>\n"
      "                                overloaded), sharded result cache,\n"
      "                                single-flight coalescing of identical\n"
      "                                in-flight requests (--no-coalesce\n"
      "                                disables), per-request deadlines,\n"
      "                                graceful drain on SIGINT/SIGTERM\n"
      "  request   <socket> <file|-> | --tcp=HOST:PORT <file|->\n"
      "            [--kind=K] [--plan=SPEC]\n"
      "            [--objective=SPEC] [--sample-rate=R] [--capacities=LIST]\n"
      "            [--deadline=MS] [--id=S] [--raw]\n"
      "                                send one request to a running server;\n"
      "                                --plan forwards a verify/codegen/mrc\n"
      "                                plan spec, --objective/--sample-rate/\n"
      "                                --capacities the optimize and mrc\n"
      "                                knobs, --raw prints just the payload\n"
      "  version                       schema version + build info\n"
      "  distances <file|->            dependence distance/direction table\n"
      "  series    <file|->            window-size time series as CSV\n"
      "  figure2                       regenerate the paper's main table\n"
      "Every verb analyzes each request on one thread; --threads is batch\n"
      "only.  An unrecognized flag exits 2.\n";
  // The kind and exit-code tables render straight from the registries
  // (kAnalysisKinds, kExitCodes) so --help can never drift from the enums.
  u += "request kinds (--kind=K, also batch/serve requests):\n";
  for (const AnalysisKindInfo& k : kAnalysisKinds) {
    u += "  ";
    u += k.name;
    for (size_t pad = std::char_traits<char>::length(k.name); pad < 10; ++pad) {
      u += ' ';
    }
    u += k.summary;
    u += '\n';
  }
  u += "exit codes:\n";
  for (const ExitCodeInfo& e : kExitCodes) {
    u += "  " + std::to_string(to_int(e.code)) + " " + e.name + ": " +
         e.meaning + "\n";
  }
  u +=
      "--json output is wrapped in {schema_version, tool, command, result}.\n"
      "DSL files use the grammar in src/ir/parser.h; '-' reads stdin.\n";
  return u;
}

namespace {

// Parses "--capacities=1,64,540" (comma-separated non-negative integers);
// nullopt on malformed input or an empty list.
std::optional<std::vector<Int>> parse_capacity_list(const std::string& text) {
  std::vector<Int> caps;
  std::istringstream ss(text);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      size_t pos = 0;
      long long v = std::stoll(tok, &pos);
      if (pos != tok.size() || v < 0) return std::nullopt;
      caps.push_back(static_cast<Int>(v));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (caps.empty()) return std::nullopt;
  return caps;
}

// What the flags of any verb set; each verb binds only its own.
struct CliArgs {
  bool json = false;
  bool symbolic = false;
  std::string objective;
  LintCliOptions lint;
  VerifyCliOptions verify;
  CodegenCliOptions codegen;
  MrcCliOptions mrc;
  BatchCliOptions batch;
  ServeCliOptions serve;
  RequestCliOptions request;
};

using Value = Cli::Value;

// --plan[=SPEC] of verify, codegen and mrc: a verify-grammar spec, or
// `bare` ("auto": the optimizer's plan), which a bare --plan also selects.
// verify's bare --plan is its default audit and sets nothing.
void plan_spec_flag(Cli& cli, std::string* plan, const char* bare) {
  cli.flag("plan", Cli::Takes::kOptional, [plan, bare](const Value& v) -> std::string {
    std::string perr;
    if (!v) {
      if (bare) *plan = bare;
    } else if ((bare && *v == bare) || parse_plan_spec(*v, &perr)) {
      *plan = *v;
    } else {
      return "bad --plan spec: " + perr;
    }
    return "";
  });
}

// --tcp=HOST:PORT of serve and request.
void tcp_flag(Cli& cli, std::string* tcp) {
  cli.flag("tcp", Cli::Takes::kValue, [tcp](const Value& v) -> std::string {
    std::string perr;
    if (!parse_host_port(*v, &perr)) return "bad --tcp value: " + perr;
    *tcp = *v;
    return "";
  });
}

// --sample-rate=R and --capacities=LIST of mrc and request.
void mrc_flags(Cli& cli, double* sample_rate, std::vector<Int>* capacities) {
  cli.number<double>("sample-rate", sample_rate,
                     [](double r) { return r > 0.0 && r <= 1.0; },
                     "--sample-rate must be in (0, 1]");
  cli.flag("capacities", Cli::Takes::kValue, [capacities](const Value& v) -> std::string {
    auto caps = parse_capacity_list(*v);
    if (caps) *capacities = std::move(*caps);
    return caps ? "" : "bad --capacities list: " + *v +
                           " (want comma-separated non-negative integers)";
  });
}

// A file or directory flag that must not be empty.
void path_flag(Cli& cli, const std::string& name, std::string* path,
               const std::string& empty_error) {
  cli.flag(name, Cli::Takes::kValue, [path, empty_error](const Value& v) {
    *path = *v;
    return v->empty() ? empty_error : std::string();
  });
}

// --cache-dir=D and --metrics=FILE of batch and serve.
void cache_flags(Cli& cli, std::string* cache_dir, std::string* metrics_file) {
  path_flag(cli, "cache-dir", cache_dir, "--cache-dir needs a directory");
  path_flag(cli, "metrics", metrics_file, "--metrics needs a file name");
}

// A verb run_cli dispatches: whether it has a --json form, and its other
// flags.
struct Verb {
  const char* name;
  bool json;
  void (*declare)(Cli&, CliArgs&);
};

const Verb kVerbs[] = {
    {"analyze", true, [](Cli& c, CliArgs& a) { c.flag("symbolic", &a.symbolic); }},
    {"optimize", true,
     [](Cli& c, CliArgs& a) {
       c.flag("objective", Cli::Takes::kValue, [o = &a.objective](const Value& v) {
         *o = *v;
         return parse_objective_spec(*v) ? std::string()
                                         : "bad --objective spec '" + *v +
                                               "' (want mws or miss-ratio:<capacity>)";
       });
     }},
    {"lint", true,
     [](Cli& c, CliArgs& a) {
       c.flag("strict", &a.lint.strict);
       c.flag("plan", Cli::Takes::kOptional, [l = &a.lint](const Value& v) {
         if (!v) {
           l->audit_plan = true;
           return std::string();
         }
         l->plan = parse_matrix_chunk(*v);
         return l->plan ? std::string() : "bad --plan matrix: " + *v;
       });
     }},
    {"verify", true,
     [](Cli& c, CliArgs& a) { plan_spec_flag(c, &a.verify.plan, nullptr); }},
    {"codegen", true,
     [](Cli& c, CliArgs& a) {
       plan_spec_flag(c, &a.codegen.plan, "auto");
       c.flag("run", &a.codegen.run);
       c.flag("cc", &a.codegen.cc);
       path_flag(c, "emit", &a.codegen.emit_file, "--emit needs a file name");
     }},
    {"mrc", true,
     [](Cli& c, CliArgs& a) {
       plan_spec_flag(c, &a.mrc.plan, "auto");
       mrc_flags(c, &a.mrc.sample_rate, &a.mrc.capacities);
     }},
    {"batch", true,
     [](Cli& c, CliArgs& a) {
       c.number<int>("threads", &a.batch.threads, [](int n) { return n >= 0; },
                     "--threads must be >= 0");
       cache_flags(c, &a.batch.cache_dir, &a.batch.metrics_file);
     }},
    {"serve", false,
     [](Cli& c, CliArgs& a) {
       ServeCliOptions& s = a.serve;
       c.flag("stdio", &s.stdio);
       tcp_flag(c, &s.tcp);
       c.number<int>("workers", &s.workers, [](int n) { return n >= 1; },
                     "--workers must be >= 1");
       // --queue= is the original spelling; --queue-depth= the documented one.
       for (const char* name : {"queue", "queue-depth"}) {
         c.number<int>(name, &s.queue_depth, [](int n) { return n >= 1; },
                       "--queue-depth must be >= 1");
       }
       c.number<int>("cache-shards", &s.cache_shards, [](int n) { return n >= 1; },
                     "--cache-shards must be >= 1");
       c.number<double>("cache-ttl", &s.cache_ttl, [](double t) { return !(t < 0); },
                        "--cache-ttl must be >= 0 seconds");
       c.number<long long>("cache-bytes", &s.cache_bytes,
                           [](long long n) { return n >= 0; },
                           "--cache-bytes must be >= 0");
       c.flag("no-coalesce", Cli::Takes::kNone, [&s](const Value&) {
         s.coalesce = false;
         return std::string();
       });
       cache_flags(c, &s.cache_dir, &s.metrics_file);
     }},
    {"request", false,
     [](Cli& c, CliArgs& a) {
       RequestCliOptions& r = a.request;
       tcp_flag(c, &r.tcp);
       c.flag("kind", &r.kind);
       c.flag("plan", &r.plan);
       c.flag("objective", &r.objective);
       mrc_flags(c, &r.sample_rate, &r.capacities);
       c.number<double>("deadline", &r.deadline_ms, [](double ms) { return !(ms < 0); },
                        "--deadline must be >= 0");
       c.flag("id", &r.id);
       c.flag("raw", &r.raw);
     }},
    {"version", true, [](Cli&, CliArgs&) {}},
    {"distances", false, [](Cli&, CliArgs&) {}},
    {"series", false, [](Cli&, CliArgs&) {}},
    {"figure2", false, [](Cli&, CliArgs&) {}},
};

// The session request behind an analysis verb's --json.
AnalysisRequest::Options session_options(const std::string& verb, const CliArgs& a) {
  using R = AnalysisRequest;
  if (verb == "analyze") return a.symbolic ? R::Options{R::Symbolic{}} : R::Analyze{};
  if (verb == "optimize") return R::Optimize{a.objective};
  if (verb == "verify") return a.verify;
  if (verb == "codegen") return R::Codegen{a.codegen.plan, a.codegen.run, a.codegen.cc};
  return a.mrc;
}

// An analysis verb's --json: the session payload in the verb's envelope,
// with the session's status as the exit code.  codegen's --emit=FILE still
// writes the C unit the payload carries.
ExitCode print_session_json(const std::string& verb, const AnalysisRequest& req,
                            const std::string& emit_file, std::ostream& out,
                            std::ostream& err) {
  AnalysisResult res = AnalysisSession().run(req);
  if (!emit_file.empty()) {
    std::optional<WireValue> doc = parse_wire_json(res.payload, nullptr);
    const WireValue* cg = doc ? doc->find("codegen") : nullptr;
    const WireValue* c = cg ? cg->find("c") : nullptr;
    if (c && !write_emit_file(emit_file, c->text, err)) return ExitCode::kFailure;
  }
  out << json_envelope(verb, Json::raw(res.payload)).dump(2) << '\n';
  return res.status;
}

const Verb* find_verb(const std::string& name) {
  for (const Verb& v : kVerbs) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

// The verb's flags, bound to `a`; `cmd` is the verb as typed.
Cli verb_cli(const Verb& verb, const std::string& cmd, CliArgs& a) {
  Cli cli("lmre " + cmd);
  if (verb.json) cli.flag("json", &a.json);
  verb.declare(cli, a);
  return cli;
}

}  // namespace

std::vector<std::string> verbs() {
  std::vector<std::string> names;
  for (const Verb& v : kVerbs) names.push_back(v.name);
  return names;
}

std::vector<std::string> verb_flags(const std::string& verb) {
  const Verb* v = find_verb(verb);
  CliArgs unused;
  return v ? verb_cli(*v, verb, unused).spellings() : std::vector<std::string>();
}

ExitCode run_cli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  const std::string cmd = args.empty() ? "" : args[0];
  const Verb* verb = find_verb(cmd == "--version" ? "version" : cmd);
  if (!verb) {
    err << usage();
    return ExitCode::kUsage;
  }
  // Flags are recognized anywhere after the verb; positional arguments
  // keep their order.
  CliArgs a;
  Cli::Parsed parsed = verb_cli(*verb, cmd, a).parse({args.begin() + 1, args.end()});
  if (parsed.unknown == "--json") {  // declared only where a JSON form exists
    err << "lmre " << cmd << ": --json is not supported"
        << (cmd == "figure2" ? " (the table is text only)" : "") << '\n';
    return ExitCode::kUsage;
  }
  if (!parsed.error.empty()) {
    err << parsed.error << '\n';
    return ExitCode::kUsage;
  }
  std::vector<std::string>& rest = parsed.positional;
  const std::string name = verb->name;
  if (name == "version") return cmd_version(a.json, out);
  if (name == "figure2") return cmd_figure2(out);
  if (name == "serve") {
    ServeCliOptions& s = a.serve;
    if (!rest.empty()) s.socket = rest[0];
    const int transports =
        (s.socket.empty() ? 0 : 1) + (s.stdio ? 1 : 0) + (s.tcp.empty() ? 0 : 1);
    if (rest.size() > 1 || transports > 1) {
      err << "serve: give exactly one transport (a socket path, "
             "--tcp=HOST:PORT, or --stdio)\n";
      return ExitCode::kUsage;
    }
    return cmd_serve(s, std::cin, out, err);
  }
  if (name == "request") {
    // Unix transport names the socket positionally; TCP takes --tcp= and
    // leaves only the request file.
    RequestCliOptions& r = a.request;
    const size_t want = r.tcp.empty() ? 2 : 1;
    if (rest.size() != want) {
      err << usage();
      return ExitCode::kUsage;
    }
    if (r.tcp.empty()) r.socket = rest[0];
    const std::string& path = rest[want - 1];
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    const std::string file = path == "-" ? "<stdin>" : path;
    return cmd_request(*source, file, r, out, err);
  }
  if (rest.empty()) {
    err << usage();
    return ExitCode::kUsage;
  }
  if (name == "batch") {
    a.batch.json = a.json;
    return cmd_batch(rest, a.batch, out, err);
  }
  // The verbs that analyze one file.
  const std::string& path = rest[0];
  auto source = read_source(path, err);
  if (!source) return ExitCode::kFailure;
  const std::string file = path == "-" ? "<stdin>" : path;
  // lint renders outside the session: DESIGN.md §8, "Verbs without a
  // session kind".
  if (a.json && name != "lint") {
    AnalysisRequest req{std::move(*source), file, session_options(name, a)};
    return print_session_json(name, req, a.codegen.emit_file, out, err);
  }
  a.lint.json = a.json;
  try {
    if (name == "analyze") {
      return a.symbolic ? cmd_symbolic(*source, out, file)
                        : cmd_analyze(*source, out, file);
    }
    if (name == "optimize") return cmd_optimize(*source, out, file, a.objective);
    if (name == "lint") return cmd_lint(*source, a.lint, out, file);
    if (name == "verify") return cmd_verify(*source, a.verify, out, file);
    if (name == "codegen") return cmd_codegen(*source, a.codegen, out, err, file);
    if (name == "mrc") return cmd_mrc(*source, a.mrc, out, file);
    if (name == "distances") return cmd_distances(*source, out);
    return cmd_series(*source, out, file);
  } catch (const ParseError& e) {
    err << file << ':' << e.line() << ':' << e.column() << ": error: "
        << e.message() << '\n';
    return ExitCode::kDiagnostics;
  } catch (const OverflowError& e) {
    err << file << ": error: " << e.what() << '\n';
    return ExitCode::kOverflow;
  }
}

}  // namespace lmre::tools
