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
#include "support/json.h"
#include "support/text.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"
#include "verify/certificate.h"
#include "verify/checker.h"
#include "verify/verify.h"

namespace lmre::tools {

namespace {

// Lint gate run at the top of every analysis verb: errors abort the command
// with rendered diagnostics (exit kDiagnostics); warnings are surfaced and
// the command proceeds.  Returns nullopt to continue.  `command` names the
// JSON envelope when json is set.
std::optional<ExitCode> lint_gate(const Program& program, const ProgramSourceMap& smap,
                                  const std::string& file, bool json,
                                  const std::string& command, std::ostream& out) {
  LintResult lint = lint_program(program, &smap);
  if (lint.has_errors()) {
    if (json) {
      Json doc = Json::object();
      doc.set("error", "input rejected by lint");
      doc.set("diagnostics", render_json(lint.diagnostics, file));
      out << json_envelope(command, std::move(doc)).dump(2) << '\n';
    } else {
      out << render_text(lint.diagnostics, file, Severity::kWarning)
          << render_summary(lint.diagnostics) << '\n';
    }
    return ExitCode::kDiagnostics;
  }
  // Warnings don't block, but the user should see them (text mode only;
  // JSON documents keep their schema).
  if (!json) out << render_text(lint.diagnostics, file, Severity::kWarning);
  return std::nullopt;
}

// Reports a failure the way every analysis verb does: the message as a
// line of text, or as the "error" of the verb's JSON envelope.
ExitCode refuse(const std::string& message, ExitCode status, bool json,
                const std::string& command, std::ostream& out) {
  if (json) {
    Json doc = Json::object().set("error", message);
    out << json_envelope(command, std::move(doc)).dump(2) << '\n';
  } else {
    out << message << '\n';
  }
  return status;
}

ExitCode refuse(const Refusal& r, bool json, const std::string& command,
                std::ostream& out) {
  return refuse(r.what(), r.status(), json, command, out);
}

// What a handler runs against from the CLI: the verb's thread count, the
// default verify_limit, one arena, and metrics nobody reads.
struct Pipeline {
  RunOptions run;
  TraceArena arena;
  Metrics metrics;
  explicit Pipeline(int threads) { run.threads = threads; }
};

constexpr const char* kExactSkipped =
    "exact window: skipped (iteration volume exceeds the verify limit)\n";

}  // namespace

ExitCode cmd_analyze(const std::string& source, std::ostream& out,
                     const std::string& file, bool json) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, json, "analyze", out)) return *rc;
  Pipeline p(1);

  if (program.phase_count() > 1) {
    if (json) {
      return refuse("analyze --json works on single-nest sources",
                    ExitCode::kFailure, json, "analyze", out);
    }
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
  if (!json) {
    out << print_nest(nest) << '\n';
    out << summarize_dependences(analyze_dependences(nest));
    AnalyzeOutcome a = run_analyze(program, p.run, p.arena, p.metrics);
    out << '\n' << render(*a.report);
    if (!a.report->mws_exact_total) out << kExactSkipped;
    return ExitCode::kSuccess;
  }

  Json doc = Json::object();
  doc.set("depth", static_cast<Int>(nest.depth()));
  doc.set("iterations", nest.iteration_count());
  Json loops = Json::array();
  for (size_t k = 0; k < nest.depth(); ++k) {
    loops.push(Json::object()
                   .set("var", nest.loop_vars()[k])
                   .set("lo", nest.bounds().range(k).lo)
                   .set("hi", nest.bounds().range(k).hi));
  }
  doc.set("loops", std::move(loops));

  DependenceInfo info = analyze_dependences(nest);
  Json deps = Json::array();
  for (const auto& d : info.deps) {
    Json dep = Json::object();
    dep.set("kind", to_string(d.kind));
    Json dist = Json::array();
    for (size_t k = 0; k < d.distance.size(); ++k) dist.push(d.distance[k]);
    dep.set("distance", std::move(dist));
    dep.set("direction", direction_string(d.distance));
    dep.set("level", static_cast<Int>(d.level()));
    deps.push(std::move(dep));
  }
  doc.set("dependences", std::move(deps));
  doc.set("nonuniform", info.has_nonuniform());

  AnalyzeOutcome a = run_analyze(program, p.run, p.arena, p.metrics);
  const MemoryReport& rep = *a.report;
  Json mem = Json::object();
  mem.set("default", rep.default_memory);
  mem.set("distinct_estimate", rep.distinct_estimate_total);
  if (rep.distinct_exact_total) mem.set("distinct_exact", *rep.distinct_exact_total);
  if (rep.mws_estimate_total) mem.set("mws_estimate", *rep.mws_estimate_total);
  if (rep.mws_exact_total) mem.set("mws_exact", *rep.mws_exact_total);
  Json arrays = Json::array();
  for (const ArrayReport& ar : rep.arrays) {
    Json ja = Json::object();
    ja.set("name", ar.name).set("declared", ar.declared);
    if (ar.distinct_estimate) ja.set("distinct_estimate", *ar.distinct_estimate);
    if (ar.distinct_exact) ja.set("distinct_exact", *ar.distinct_exact);
    if (ar.mws_exact) ja.set("mws_exact", *ar.mws_exact);
    arrays.push(std::move(ja));
  }
  mem.set("arrays", std::move(arrays));
  doc.set("memory", std::move(mem));

  out << json_envelope("analyze", std::move(doc)).dump(2) << '\n';
  return ExitCode::kSuccess;
}

ExitCode cmd_optimize(const std::string& source, std::ostream& out, int threads,
                      const std::string& file, const std::string& objective,
                      bool json) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, json, "optimize", out)) return *rc;
  if (json && program.phase_count() > 1) {
    return refuse("optimize --json works on single-nest sources",
                  ExitCode::kFailure, json, "optimize", out);
  }
  Pipeline p(threads);
  OptimizeOutcome o;
  try {
    o = run_optimize(program, objective, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, json, "optimize", out);
  }
  TransformedNest tn(program.phase_nest(0), o.plan.transform);
  if (json) {
    Json doc = optimize_json(o).set("transformed_loop", tn.print());
    out << json_envelope("optimize", std::move(doc)).dump(2) << '\n';
    return ExitCode::kSuccess;
  }

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

ExitCode cmd_series(const std::string& source, std::ostream& out) {
  Program parsed = parse_program(source);
  const Program* program = &parsed;
  if (program->phase_count() > 1) {
    out << "series works on single-nest sources\n";
    return ExitCode::kFailure;
  }
  const LoopNest& nest = program->phase_nest(0);
  std::vector<Int> series = window_series(nest, IntMat::identity(nest.depth()));
  out << "iteration,window\n";
  for (size_t t = 0; t < series.size(); ++t) {
    out << t << ',' << series[t] << '\n';
  }
  return ExitCode::kSuccess;
}

ExitCode cmd_symbolic(const std::string& source, std::ostream& out,
                      const std::string& file, bool json) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, json, "analyze", out)) return *rc;
  Pipeline p(1);
  SymbolicResult sym;
  try {
    sym = run_symbolic(program, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, json, "analyze", out);
  }
  const ExitCode rc = sym.usable() ? ExitCode::kSuccess : ExitCode::kDiagnostics;
  if (json) {
    Json doc = Json::object();
    doc.set("symbolic", symbolic_json(sym));
    out << json_envelope("analyze", std::move(doc)).dump(2) << '\n';
    return rc;
  }

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
  Program program = parse_program(source, &smap);

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
  if (auto rc = lint_gate(program, smap, file, cli.json, "verify", out)) return *rc;
  Pipeline p(cli.threads);
  VerifyOutcome v;
  try {
    v = run_verify(program, cli.plan, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, cli.json, "verify", out);
  }
  const LoopNest& nest = program.phase_nest(0);
  const VerifyResult& verdict = v.verdict;
  CertificateCheck check = check_certificate(nest, verdict);

  if (cli.json) {
    Json doc = Json::object();
    doc.set("verify", certificate_json(nest, verdict));
    doc.set("diagnostics", render_json(v.diagnostics, file));
    Json jc = Json::object();
    jc.set("ok", check.ok)
        .set("proofs", static_cast<Int>(check.checked_proofs))
        .set("witnesses", static_cast<Int>(check.checked_witnesses))
        .set("trusted", static_cast<Int>(check.trusted));
    if (!check.failures.empty()) {
      Json fails = Json::array();
      for (const std::string& f : check.failures) fails.push(f);
      jc.set("failures", std::move(fails));
    }
    doc.set("checker", std::move(jc));
    out << json_envelope("verify", std::move(doc)).dump(2) << '\n';
  } else {
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
  }
  if (!check.ok) return ExitCode::kFailure;
  return verdict.certified ? ExitCode::kSuccess : ExitCode::kDiagnostics;
}

ExitCode cmd_codegen(const std::string& source, const CodegenCliOptions& cli,
                     std::ostream& out, std::ostream& err,
                     const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, cli.json, "codegen", out)) return *rc;
  Pipeline p(cli.threads);
  AnalysisRequest::Codegen copt;
  copt.plan = cli.plan;
  CodegenOutcome outcome;
  try {
    outcome = run_codegen(program, copt, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, cli.json, "codegen", out);
  }
  const CodegenResult& cg = outcome.code;

  if (!cli.emit_file.empty()) {
    std::ofstream cf(cli.emit_file, std::ios::trunc);
    if (!cf) {
      err << "cannot write " << cli.emit_file << '\n';
      return ExitCode::kFailure;
    }
    cf << cg.c_source;
  }
  if (cli.run) {
    run_generated(outcome, cli.cc);
    if (!outcome.no_compiler.empty()) {
      err << "codegen --run: " << outcome.no_compiler << '\n';
      return ExitCode::kFailure;
    }
  }
  const std::optional<RunVerdict>& run = outcome.run;

  if (cli.json) {
    Json doc = Json::object();
    doc.set("codegen", codegen_json(outcome, /*include_source=*/cli.emit_file.empty()));
    out << json_envelope("codegen", std::move(doc)).dump(2) << '\n';
  } else {
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
  }
  return outcome.ok() ? ExitCode::kSuccess : ExitCode::kFailure;
}

ExitCode cmd_mrc(const std::string& source, const MrcCliOptions& cli,
                 std::ostream& out, const std::string& file) {
  AnalysisRequest::Mrc mopt;
  mopt.plan = cli.plan;
  mopt.sample_rate = cli.sample_rate;
  mopt.capacities = cli.capacities;
  if (cli.json) {
    // The session's payload verbatim, byte-identical to what `lmre batch`
    // and `lmre serve` embed for the same request (including lint
    // rejections and volume-gate errors).
    SessionOptions sopts;
    sopts.run.threads = cli.threads;
    AnalysisSession session(sopts);
    AnalysisResult res =
        session.run(AnalysisRequest{source, file, std::move(mopt)});
    out << json_envelope("mrc", Json::raw(res.payload)).dump(2) << '\n';
    return res.status;
  }

  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);
  if (auto rc = lint_gate(program, smap, file, /*json=*/false, "mrc", out)) {
    return *rc;
  }
  Pipeline p(cli.threads);
  MrcOutcome outcome;
  try {
    outcome = run_mrc(program, mopt, p.run, p.arena, p.metrics);
  } catch (const Refusal& r) {
    return refuse(r, /*json=*/false, "mrc", out);
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

ExitCode cmd_figure2(std::ostream& out, int threads) {
  MinimizerOptions opts;
  opts.threads = threads;
  TextTable t;
  t.header({"code", "default", "MWS_unopt", "MWS_opt", "method"});
  for (auto& e : codes::figure2_suite()) {
    OptimizeResult res = optimize_locality(e.nest, opts);
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
      "  optimize  [--json] [--threads=N] [--objective=SPEC] <file|->\n"
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
      "                                writes counters/timers/cache stats\n"
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
      "  figure2   [--threads=N]       regenerate the paper's main table\n"
      "--threads: search/verify workers (0 = all cores, 1 = serial; the\n"
      "result is bit-identical for every value).\n";
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

// Parses "--plan=a b; c d" matrix text (rows split on ';', entries on
// spaces/commas); nullopt on malformed input.
std::optional<IntMat> parse_plan_matrix(const std::string& text) {
  std::vector<std::vector<Int>> rows;
  std::istringstream row_stream(text);
  std::string row_text;
  while (std::getline(row_stream, row_text, ';')) {
    for (char& c : row_text) {
      if (c == ',') c = ' ';
    }
    std::istringstream cells(row_text);
    std::vector<Int> row;
    Int v = 0;
    while (cells >> v) row.push_back(v);
    if (!cells.eof()) return std::nullopt;  // non-numeric junk
    if (row.empty()) return std::nullopt;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return std::nullopt;
  IntMat m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != rows[0].size()) return std::nullopt;
    for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

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

}  // namespace

ExitCode run_cli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return ExitCode::kUsage;
  }
  const std::string& cmd = args[0];
  // Shared flag extraction: --json, --threads=N and the per-command flags
  // are recognized anywhere after the command name.
  bool json = false;
  bool symbolic = false;
  int threads = 1;
  std::string objective;
  LintCliOptions lint_opts;
  VerifyCliOptions verify_opts;
  CodegenCliOptions codegen_opts;
  MrcCliOptions mrc_opts;
  BatchCliOptions batch_opts;
  ServeCliOptions serve_opts;
  RequestCliOptions request_opts;
  std::vector<std::string> rest(args.begin() + 1, args.end());
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == "--json") {
      json = true;
      it = rest.erase(it);
    } else if (it->rfind("--threads=", 0) == 0) {
      try {
        threads = std::stoi(it->substr(10));
      } catch (const std::exception&) {
        err << "bad --threads value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (threads < 0) {
        err << "--threads must be >= 0\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "analyze" && *it == "--symbolic") {
      symbolic = true;
      it = rest.erase(it);
    } else if (cmd == "lint" && *it == "--strict") {
      lint_opts.strict = true;
      it = rest.erase(it);
    } else if (cmd == "lint" && *it == "--plan") {
      lint_opts.audit_plan = true;
      it = rest.erase(it);
    } else if (cmd == "lint" && it->rfind("--plan=", 0) == 0) {
      lint_opts.plan = parse_plan_matrix(it->substr(7));
      if (!lint_opts.plan) {
        err << "bad --plan matrix: " << it->substr(7) << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if ((cmd == "batch" || cmd == "serve") &&
               it->rfind("--cache-dir=", 0) == 0) {
      batch_opts.cache_dir = serve_opts.cache_dir = it->substr(12);
      if (batch_opts.cache_dir.empty()) {
        err << "--cache-dir needs a directory\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if ((cmd == "batch" || cmd == "serve") &&
               it->rfind("--metrics=", 0) == 0) {
      batch_opts.metrics_file = serve_opts.metrics_file = it->substr(10);
      if (batch_opts.metrics_file.empty()) {
        err << "--metrics needs a file name\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && *it == "--stdio") {
      serve_opts.stdio = true;
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--workers=", 0) == 0) {
      try {
        serve_opts.workers = std::stoi(it->substr(10));
      } catch (const std::exception&) {
        err << "bad --workers value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (serve_opts.workers < 1) {
        err << "--workers must be >= 1\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && (it->rfind("--queue=", 0) == 0 ||
                                  it->rfind("--queue-depth=", 0) == 0)) {
      // --queue= is the original spelling; --queue-depth= the documented one.
      size_t eq = it->find('=');
      int depth = 0;
      try {
        depth = std::stoi(it->substr(eq + 1));
      } catch (const std::exception&) {
        err << "bad --queue-depth value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (depth < 1) {
        err << "--queue-depth must be >= 1\n";
        return ExitCode::kUsage;
      }
      serve_opts.queue_depth = static_cast<size_t>(depth);
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--tcp=", 0) == 0) {
      serve_opts.tcp = it->substr(6);
      std::string perr;
      if (!parse_host_port(serve_opts.tcp, &perr)) {
        err << "bad --tcp value: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--cache-shards=", 0) == 0) {
      int shards = 0;
      try {
        shards = std::stoi(it->substr(15));
      } catch (const std::exception&) {
        err << "bad --cache-shards value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (shards < 1) {
        err << "--cache-shards must be >= 1\n";
        return ExitCode::kUsage;
      }
      serve_opts.cache_shards = static_cast<size_t>(shards);
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--cache-ttl=", 0) == 0) {
      try {
        serve_opts.cache_ttl = std::stod(it->substr(12));
      } catch (const std::exception&) {
        err << "bad --cache-ttl value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (serve_opts.cache_ttl < 0) {
        err << "--cache-ttl must be >= 0 seconds\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--cache-bytes=", 0) == 0) {
      long long bytes = 0;
      try {
        bytes = std::stoll(it->substr(14));
      } catch (const std::exception&) {
        err << "bad --cache-bytes value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (bytes < 0) {
        err << "--cache-bytes must be >= 0\n";
        return ExitCode::kUsage;
      }
      serve_opts.cache_bytes = static_cast<size_t>(bytes);
      it = rest.erase(it);
    } else if (cmd == "serve" && *it == "--no-coalesce") {
      serve_opts.coalesce = false;
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--tcp=", 0) == 0) {
      request_opts.tcp = it->substr(6);
      std::string perr;
      if (!parse_host_port(request_opts.tcp, &perr)) {
        err << "bad --tcp value: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--kind=", 0) == 0) {
      request_opts.kind = it->substr(7);
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--plan=", 0) == 0) {
      request_opts.plan = it->substr(7);
      it = rest.erase(it);
    } else if (cmd == "verify" && *it == "--plan") {
      // Bare --plan is the default audit mode; accepted for symmetry with
      // `lmre lint --plan`.
      it = rest.erase(it);
    } else if (cmd == "verify" && it->rfind("--plan=", 0) == 0) {
      verify_opts.plan = it->substr(7);
      std::string perr;
      if (!parse_plan_spec(verify_opts.plan, &perr)) {
        err << "bad --plan spec: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "codegen" && *it == "--plan") {
      // Bare --plan means "the optimizer's own plan" (certified-gated).
      codegen_opts.plan = "auto";
      it = rest.erase(it);
    } else if (cmd == "codegen" && it->rfind("--plan=", 0) == 0) {
      codegen_opts.plan = it->substr(7);
      std::string perr;
      if (codegen_opts.plan != "auto" &&
          !parse_plan_spec(codegen_opts.plan, &perr)) {
        err << "bad --plan spec: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "optimize" && it->rfind("--objective=", 0) == 0) {
      objective = it->substr(12);
      if (!parse_objective_spec(objective)) {
        err << "bad --objective spec '" << objective
            << "' (want mws or miss-ratio:<capacity>)\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "mrc" && *it == "--plan") {
      // Bare --plan means "the optimizer's own plan".
      mrc_opts.plan = "auto";
      it = rest.erase(it);
    } else if (cmd == "mrc" && it->rfind("--plan=", 0) == 0) {
      mrc_opts.plan = it->substr(7);
      std::string perr;
      if (mrc_opts.plan != "auto" &&
          !parse_plan_spec(mrc_opts.plan, &perr)) {
        err << "bad --plan spec: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "mrc" && it->rfind("--sample-rate=", 0) == 0) {
      try {
        mrc_opts.sample_rate = std::stod(it->substr(14));
      } catch (const std::exception&) {
        err << "bad --sample-rate value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (!(mrc_opts.sample_rate > 0.0) || mrc_opts.sample_rate > 1.0) {
        err << "--sample-rate must be in (0, 1]\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "mrc" && it->rfind("--capacities=", 0) == 0) {
      auto caps = parse_capacity_list(it->substr(13));
      if (!caps) {
        err << "bad --capacities list: " << it->substr(13)
            << " (want comma-separated non-negative integers)\n";
        return ExitCode::kUsage;
      }
      mrc_opts.capacities = std::move(*caps);
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--objective=", 0) == 0) {
      request_opts.objective = it->substr(12);
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--sample-rate=", 0) == 0) {
      try {
        request_opts.sample_rate = std::stod(it->substr(14));
      } catch (const std::exception&) {
        err << "bad --sample-rate value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (!(request_opts.sample_rate > 0.0) || request_opts.sample_rate > 1.0) {
        err << "--sample-rate must be in (0, 1]\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--capacities=", 0) == 0) {
      auto caps = parse_capacity_list(it->substr(13));
      if (!caps) {
        err << "bad --capacities list: " << it->substr(13)
            << " (want comma-separated non-negative integers)\n";
        return ExitCode::kUsage;
      }
      request_opts.capacities = std::move(*caps);
      it = rest.erase(it);
    } else if (cmd == "codegen" && *it == "--run") {
      codegen_opts.run = true;
      it = rest.erase(it);
    } else if (cmd == "codegen" && it->rfind("--cc=", 0) == 0) {
      codegen_opts.cc = it->substr(5);
      it = rest.erase(it);
    } else if (cmd == "codegen" && it->rfind("--emit=", 0) == 0) {
      codegen_opts.emit_file = it->substr(7);
      if (codegen_opts.emit_file.empty()) {
        err << "--emit needs a file name\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--deadline=", 0) == 0) {
      try {
        request_opts.deadline_ms = std::stod(it->substr(11));
      } catch (const std::exception&) {
        err << "bad --deadline value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (request_opts.deadline_ms < 0) {
        err << "--deadline must be >= 0\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--id=", 0) == 0) {
      request_opts.id = it->substr(5);
      it = rest.erase(it);
    } else if (cmd == "request" && *it == "--raw") {
      request_opts.raw = true;
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  lint_opts.json = json;
  if (cmd == "version" || cmd == "--version") return cmd_version(json, out);
  if (cmd == "serve") {
    if (!rest.empty()) serve_opts.socket = rest[0];
    const int transports = (serve_opts.socket.empty() ? 0 : 1) +
                           (serve_opts.stdio ? 1 : 0) +
                           (serve_opts.tcp.empty() ? 0 : 1);
    if (rest.size() > 1 || transports > 1) {
      err << "serve: give exactly one transport (a socket path, "
             "--tcp=HOST:PORT, or --stdio)\n";
      return ExitCode::kUsage;
    }
    return cmd_serve(serve_opts, std::cin, out, err);
  }
  if (cmd == "request") {
    // Unix transport names the socket positionally; TCP takes --tcp= and
    // leaves only the request file.
    const size_t want = request_opts.tcp.empty() ? 2 : 1;
    if (rest.size() != want) {
      err << usage();
      return ExitCode::kUsage;
    }
    if (request_opts.tcp.empty()) request_opts.socket = rest[0];
    const std::string& path = rest[want - 1];
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    const std::string file = path == "-" ? "<stdin>" : path;
    return cmd_request(*source, file, request_opts, out, err);
  }
  if (cmd == "figure2") return cmd_figure2(out, threads);
  if (cmd == "batch") {
    if (rest.empty()) {
      err << usage();
      return ExitCode::kUsage;
    }
    batch_opts.json = json;
    batch_opts.threads = threads;
    return cmd_batch(rest, batch_opts, out, err);
  }
  if (cmd == "analyze" || cmd == "optimize" || cmd == "lint" ||
      cmd == "verify" || cmd == "codegen" || cmd == "mrc" ||
      cmd == "distances" || cmd == "series") {
    if (rest.empty()) {
      err << usage();
      return ExitCode::kUsage;
    }
    const std::string& path = rest[0];
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    const std::string file = path == "-" ? "<stdin>" : path;
    try {
      if (cmd == "analyze" && symbolic) return cmd_symbolic(*source, out, file, json);
      if (cmd == "analyze") return cmd_analyze(*source, out, file, json);
      if (cmd == "optimize") {
        return cmd_optimize(*source, out, threads, file, objective, json);
      }
      if (cmd == "lint") return cmd_lint(*source, lint_opts, out, file);
      if (cmd == "verify") {
        verify_opts.json = json;
        verify_opts.threads = threads;
        return cmd_verify(*source, verify_opts, out, file);
      }
      if (cmd == "codegen") {
        codegen_opts.json = json;
        codegen_opts.threads = threads;
        return cmd_codegen(*source, codegen_opts, out, err, file);
      }
      if (cmd == "mrc") {
        mrc_opts.json = json;
        mrc_opts.threads = threads;
        return cmd_mrc(*source, mrc_opts, out, file);
      }
      if (cmd == "distances") return cmd_distances(*source, out);
      return cmd_series(*source, out);
    } catch (const ParseError& e) {
      err << file << ':' << e.line() << ':' << e.column() << ": error: "
          << e.message() << '\n';
      return ExitCode::kDiagnostics;
    } catch (const OverflowError& e) {
      err << file << ": error: " << e.what() << '\n';
      return ExitCode::kOverflow;
    }
  }
  err << usage();
  return ExitCode::kUsage;
}

}  // namespace lmre::tools
