#pragma once

// Implementation of the `lmre` command-line tool's subcommands, separated
// from main() so they are unit-testable.  Every command takes parsed inputs
// and writes its report to the given stream.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "linalg/mat.h"
#include "runtime/session.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre::tools {

// Exit codes follow the named ExitCode convention in support/error.h
// (kSuccess/kFailure/kUsage/kDiagnostics/kOverflow = 0/1/2/3/4), shared by
// every subcommand, run_cli, and the batch runtime.  Parse errors propagate
// as ParseError out of the cmd_* functions; run_cli formats them as
// "file:line:col: error: ..." on the error stream.
//
// Every `--json` document is wrapped in the common versioned envelope
// (json_envelope in support/json.h):
//   {"schema_version": 2, "tool": "lmre", "command": ..., "result": ...}
// For the analysis verbs (analyze, analyze --symbolic, optimize, verify,
// codegen, mrc) run_cli maps the flags onto an AnalysisRequest and the
// result is the AnalysisSession payload, byte-identical to what `lmre
// batch` and `lmre serve` embed for the same request -- parse errors, lint
// rejections and refusals included -- with the session's status as the
// exit code.  The cmd_* functions of those verbs are their text renderings.

/// `lmre analyze <dsl>`: dependences + memory report (+ program handoffs
/// for multi-phase sources).  Lints the input first: errors abort with
/// diagnostics (exit kDiagnostics), warnings are printed and analysis
/// continues.  `file` names the input in diagnostics.  The exact columns
/// are measured only within the default verify_limit.
ExitCode cmd_analyze(const std::string& source, std::ostream& out,
                     const std::string& file = "<input>");

/// `lmre optimize [--objective=SPEC] <dsl>`: transformation search,
/// certification, transformed loop, before/after windows (exact within
/// the default verify_limit).  Lint-gated like cmd_analyze.  `objective`
/// selects the search metric: ""/"mws" = the paper's window objective,
/// "miss-ratio:<capacity>" re-scores the top candidates by exact miss
/// ratio at that LRU capacity (src/mrc).
ExitCode cmd_optimize(const std::string& source, std::ostream& out,
                      const std::string& file = "<input>",
                      const std::string& objective = {});

/// Options for `lmre lint`, parsed by run_cli.
struct LintCliOptions {
  bool json = false;        ///< emit enveloped JSON diagnostics instead of text
  bool strict = false;      ///< warnings also make the exit code nonzero
  bool audit_plan = false;  ///< --plan: re-certify the plan optimize emits
  std::optional<IntMat> plan;  ///< --plan="a b; c d": explicit plan matrix
};

/// `lmre lint [--json] [--strict] [--plan[=MATRIX]] <file|->`: runs the
/// static verifier (src/lint) and renders its diagnostics.  kSuccess when
/// no errors were found (--strict: no warnings either), kDiagnostics
/// otherwise.
ExitCode cmd_lint(const std::string& source, const LintCliOptions& opts,
                  std::ostream& out, const std::string& file = "<input>");

/// `lmre distances <dsl>`: dependence distance/direction table.
ExitCode cmd_distances(const std::string& source, std::ostream& out);

/// `lmre series <dsl>`: CSV of the window-size time series (ordinal,
/// live-element count) in original order -- for plotting.  Lint errors
/// abort with kDiagnostics (the text report); warnings are not printed.
ExitCode cmd_series(const std::string& source, std::ostream& out,
                    const std::string& file = "<input>");

/// `lmre analyze --symbolic <dsl>`: closed-form analysis (src/symbolic) --
/// per-array distinct/reuse/window formulas in the symbolic bounds
/// N1..Nn, evaluated once at the nest's own trip counts.  Never runs the
/// trace oracle, so the cost is independent of the bounds.  Exits
/// kDiagnostics when no array admits a closed form (LMRE-E017); partial
/// coverage is reported with per-quantity notes and exits kSuccess.
ExitCode cmd_symbolic(const std::string& source, std::ostream& out,
                      const std::string& file = "<input>");

/// Options for `lmre verify`: --plan=SPEC, the plan to certify ("" or bare
/// --plan = audit the plan `lmre optimize` emits).
using VerifyCliOptions = AnalysisRequest::Verify;

/// `lmre verify [--plan[=SPEC]] <file|->`: runs the
/// dependence-preservation prover (src/verify) over the plan, renders its
/// diagnostics (LMRE-E013/E019/W014/W020/N016/N021/N022), and re-validates
/// the certificate with the independent checker.  kSuccess when the plan is
/// certified, kDiagnostics when it is refuted or unproven, kFailure when
/// the checker rejects the prover's own certificate (never expected),
/// kUsage on a malformed plan spec.
ExitCode cmd_verify(const std::string& source, const VerifyCliOptions& opts,
                    std::ostream& out, const std::string& file = "<input>");

/// Options for `lmre codegen`, parsed by run_cli.
struct CodegenCliOptions {
  bool run = false;   ///< --run: compile with cc and execute the self-check
  /// --plan[=SPEC]: execution order to emit.  "" = the identity order,
  /// "auto" (bare --plan) = the plan `lmre optimize` emits, anything else
  /// = a verify-grammar spec.  Non-identity plans must certify.
  std::string plan;
  std::string cc;         ///< --cc=PATH: C compiler override ("" = cc)
  std::string emit_file;  ///< --emit=FILE: write the C unit here
};

/// `lmre codegen [--plan[=SPEC]] [--run] [--cc=PATH]
/// [--emit=FILE] <file|->`: lowers the nest to one standalone C unit
/// (src/codegen) holding the original nest over full arrays AND the
/// plan's execution order against window-sized modulo buffers, plus a
/// self-check that compares them element-for-element and validates the
/// engine's window/traffic predictions.  --run compiles the unit with the
/// system C compiler and executes that check.  kSuccess when emission
/// (and the run, if requested) succeeded, kFailure on miscompare or
/// compile failure, kUsage on a malformed plan spec, kDiagnostics when
/// the plan cannot be certified.
ExitCode cmd_codegen(const std::string& source, const CodegenCliOptions& opts,
                     std::ostream& out, std::ostream& err,
                     const std::string& file = "<input>");

/// Options for `lmre mrc`: --plan[=SPEC] (bare = "auto", the optimizer's
/// plan), --sample-rate=R and --capacities=LIST.
using MrcCliOptions = AnalysisRequest::Mrc;

/// `lmre mrc [--plan[=SPEC]] [--sample-rate=R] [--capacities=LIST]
/// <file|->`: reuse-distance histogram and miss-ratio curve (src/mrc) for
/// the nest under the given execution order -- exact, or SHARDS-sampled at
/// `--sample-rate` with a declared error bound -- rendered as a table.
/// kUsage on a malformed plan, kFailure when the trace volume exceeds the
/// verify limit.
ExitCode cmd_mrc(const std::string& source, const MrcCliOptions& opts,
                 std::ostream& out, const std::string& file = "<input>");

/// `lmre figure2`: the paper's main table (text only; run_cli refuses
/// --json with kUsage).
ExitCode cmd_figure2(std::ostream& out);

/// Options for `lmre batch`, parsed by run_cli.
struct BatchCliOptions {
  bool json = false;         ///< enveloped JSON instead of the text table
  int threads = 1;           ///< requests run at once (0 = all cores)
  std::string cache_dir;     ///< --cache-dir=D: persistent result cache
  std::string metrics_file;  ///< --metrics=F: write the metrics snapshot here
};

/// `lmre batch <dir|files...> [--json] [--threads=N] [--cache-dir=D]
/// [--metrics=FILE]`: runs the full pipeline (parse, lint, estimate, exact
/// MWS, optimize) over a corpus through an AnalysisSession.  Directories
/// expand to their *.loop files, sorted; output order is the sorted input
/// order at every thread count, and warm-cache re-runs are bit-identical
/// to cold ones (cache state is reported via --metrics, never in the
/// result document).  The exit code is the numerically largest per-file
/// status (so one overflow outranks a lint rejection outranks success).
ExitCode cmd_batch(const std::vector<std::string>& inputs,
                   const BatchCliOptions& opts, std::ostream& out,
                   std::ostream& err);

/// Options for `lmre serve`, parsed by run_cli.
struct ServeCliOptions {
  std::string socket;        ///< Unix-domain socket path ("" with stdio/tcp)
  std::string tcp;           ///< --tcp=HOST:PORT ("" with socket/stdio)
  bool stdio = false;        ///< --stdio: newline-JSON over stdin/stdout
  int workers = 1;           ///< --workers=N: analysis pool size
  size_t queue_depth = 256;  ///< --queue-depth=N: backlog before shedding
  bool coalesce = true;      ///< --no-coalesce disables single-flight
  size_t cache_shards = 8;   ///< --cache-shards=N: result-cache shards
  double cache_ttl = 0;      ///< --cache-ttl=S: result expiry in seconds
  size_t cache_bytes = 0;    ///< --cache-bytes=N: in-memory payload cap
  std::string cache_dir;     ///< --cache-dir=D: persistent result cache
  std::string metrics_file;  ///< --metrics=F: snapshot written on drain
};

/// `lmre serve <socket>|--tcp=HOST:PORT|--stdio [--workers=N]
/// [--queue-depth=N] [--cache-shards=N] [--cache-ttl=S] [--cache-bytes=N]
/// [--cache-dir=D] [--metrics=FILE] [--no-coalesce]`: runs the concurrent
/// analysis server (src/server) until SIGINT/SIGTERM (socket/tcp mode) or
/// stdin EOF (--stdio), then drains gracefully: in-flight requests
/// finish, metrics flush, exit kSuccess.  TCP mode announces the bound
/// address on `out` ("serve: listening on HOST:PORT" -- with --tcp=H:0
/// that is the kernel-assigned port).  `in` feeds the --stdio transport
/// (run_cli passes std::cin).
ExitCode cmd_serve(const ServeCliOptions& opts, std::istream& in,
                   std::ostream& out, std::ostream& err);

/// Options for `lmre request`, parsed by run_cli.
struct RequestCliOptions {
  std::string socket;       ///< Unix-domain socket of a running server
  std::string tcp;          ///< --tcp=HOST:PORT of a running TCP server
  std::string kind = "full";///< --kind=K, any name in kAnalysisKinds
  std::string plan;         ///< --plan=SPEC (verify: "" = audit; codegen/
                            ///< mrc: "" = identity, "auto" = optimizer's)
  std::string objective;    ///< --objective=SPEC (optimize; "" = omit)
  double sample_rate = 0;   ///< --sample-rate=R (mrc; 0 = omit)
  std::vector<Int> capacities;  ///< --capacities=LIST (mrc; empty = omit)
  double deadline_ms = 0;   ///< --deadline=MS (0 = none)
  std::string id;           ///< --id=S (defaults to the file name)
  bool raw = false;         ///< --raw: print only the result payload
};

/// `lmre request <socket>|--tcp=HOST:PORT <file|-> [--kind=K]
/// [--deadline=MS] [--id=S] [--raw]`: one-shot client -- sends `source`
/// to a running server (Unix socket or TCP) and prints the response line
/// (--raw: just the embedded result payload, byte-identical to what
/// `lmre batch` embeds).  The exit code follows the wire status: 0-4 map
/// to ExitCode directly, overloaded/timeout exit kFailure, bad_request
/// exits kUsage.
ExitCode cmd_request(const std::string& source, const std::string& file,
                     const RequestCliOptions& opts, std::ostream& out,
                     std::ostream& err);

/// `lmre version` / `lmre --version`: tool identity -- JSON schema version
/// and build info (compiler, C++ standard).  --json wraps it in the
/// standard envelope.
ExitCode cmd_version(bool json, std::ostream& out);

/// Usage text for the dispatcher.
std::string usage();

/// The verbs run_cli dispatches (`--version` also runs `version`).
std::vector<std::string> verbs();

/// The flags `verb` declares, spelled "--name" (no value), "--name="
/// (value required) or "--name[=]" (value optional); empty for an unknown
/// verb.  Only the verbs with a JSON form declare --json.
std::vector<std::string> verb_flags(const std::string& verb);

/// Dispatcher used by main(): argv-style interface.
ExitCode run_cli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

}  // namespace lmre::tools
