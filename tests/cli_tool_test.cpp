#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "runtime/session.h"
#include "support/error.h"
#include "tools/commands.h"

namespace lmre::tools {
namespace {

const char* kExample8 = R"(
  for i = 1 to 25
    for j = 1 to 10
      X[2*i + 5*j + 1] = X[2*i + 5*j + 5];
)";

// The CLI's exit-code contract is the named enum in support/error.h; the
// numeric values are part of the tool's public interface (scripts match on
// them), so pin both directions of the mapping.
TEST(ExitCodeConvention, NamedValuesAreStable) {
  EXPECT_EQ(to_int(ExitCode::kSuccess), 0);
  EXPECT_EQ(to_int(ExitCode::kFailure), 1);
  EXPECT_EQ(to_int(ExitCode::kUsage), 2);
  EXPECT_EQ(to_int(ExitCode::kDiagnostics), 3);
  EXPECT_EQ(to_int(ExitCode::kOverflow), 4);
  EXPECT_STREQ(to_string(ExitCode::kSuccess), "success");
  EXPECT_STREQ(to_string(ExitCode::kFailure), "failure");
  EXPECT_STREQ(to_string(ExitCode::kUsage), "usage");
  EXPECT_STREQ(to_string(ExitCode::kDiagnostics), "diagnostics");
  EXPECT_STREQ(to_string(ExitCode::kOverflow), "overflow");
}

TEST(CliAnalyze, SingleNest) {
  std::ostringstream out;
  EXPECT_EQ(cmd_analyze(kExample8, out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("flow (3, -2)"), std::string::npos);
  EXPECT_NE(s.find("anti (2, 0)"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
}

TEST(CliAnalyze, MultiPhase) {
  std::ostringstream out;
  ExitCode rc = cmd_analyze(R"(
    array A[8];
    phase p { for i = 1 to 8  A[i] = 0; }
    phase c { for i = 1 to 8  B[i] = A[i]; }
  )",
                            out);
  EXPECT_EQ(rc, ExitCode::kSuccess);
  EXPECT_NE(out.str().find("whole-program window: 8"), std::string::npos);
}

TEST(CliAnalyze, HugeRankOneNestFinishes) {
  // 10^15 iterations: the lex-min distances are searched, not enumerated,
  // so analyze answers at once (the exact window is skipped by the verify
  // limit); the ctest TIMEOUT catches a regression to enumeration.
  std::ostringstream out;
  EXPECT_EQ(cmd_analyze(R"(
    array A[300000];
    for i = 0 to 99999
      for j = 0 to 99999
        for k = 0 to 99999
          { A[i + j + k + 2] = A[i + j + k]; }
  )",
                        out),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("flow (0, 0, 2) (=, =, <) level 3"), std::string::npos) << s;
  EXPECT_NE(s.find("anti (0, 1, -3) (=, <, >) level 2"), std::string::npos) << s;
}

TEST(CliAnalyze, ParseErrorPropagates) {
  // run_cli formats ParseError as file:line:col (exit kDiagnostics); the
  // cmd_* functions let it propagate instead of flattening it to text.
  std::ostringstream out;
  EXPECT_THROW(cmd_analyze("for i = 1 to\n", out), ParseError);
}

TEST(CliAnalyze, LintErrorsAbortWithDiagnostics) {
  std::ostringstream out;
  ExitCode rc = cmd_analyze("array A[4];\nfor i = 1 to 10\n  use A[i];\n", out);
  EXPECT_EQ(rc, ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E001]"), std::string::npos);
}

TEST(CliOptimize, FindsPaperTransform) {
  std::ostringstream out;
  EXPECT_EQ(cmd_optimize(kExample8, out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("[2 3; 1 1]"), std::string::npos);
  EXPECT_NE(s.find("44 -> 21"), std::string::npos);
}

TEST(CliDistances, Table) {
  std::ostringstream out;
  EXPECT_EQ(cmd_distances(kExample8, out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("(<, >)"), std::string::npos);  // (3,-2) and (5,-2)
  EXPECT_NE(s.find("(<, =)"), std::string::npos);  // (2,0)
}

TEST(CliMrc, ExplicitCapacities) {
  MrcCliOptions opts;
  opts.capacities = {64};
  std::ostringstream out;
  EXPECT_EQ(cmd_mrc(kExample8, opts, out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("cold misses (distinct): 94"), std::string::npos);
  EXPECT_NE(s.find("64"), std::string::npos);
}

TEST(CliMrc, AutoSweepIncludesKnee) {
  std::ostringstream out;
  EXPECT_EQ(cmd_mrc(kExample8, {}, out), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("knee: 48"), std::string::npos);
}

TEST(CliSeries, EmitsCsv) {
  std::ostringstream out;
  EXPECT_EQ(cmd_series("for i = 1 to 4\n  A[i] = A[i-1];\n", out),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("iteration,window"), std::string::npos);
  // 4 iterations -> 4 data lines + header.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(CliSeries, LintErrorsAbortWithDiagnostics) {
  // The reference ranges of A span more than 2^63 elements together (the
  // read sits 2^62 past the write): lint's LMRE-E009 stops series before
  // the trace engine would throw.
  std::ostringstream out;
  EXPECT_EQ(cmd_series(R"(
    array A[10][10];
    for i = 1 to 10
      for j = 1 to 10
        A[i][j] = A[i + 4611686018427387904][j + 4611686018427387904];
  )",
                       out),
            ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E009]"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("iteration,window"), std::string::npos) << out.str();
}

TEST(CliFigure2, JsonIsRefused) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"figure2", "--json"}, out, err), ExitCode::kUsage);
  EXPECT_NE(err.str().find("lmre figure2: --json is not supported"),
            std::string::npos)
      << err.str();
  EXPECT_TRUE(out.str().empty()) << out.str();
}

TEST(CliFigure2, Runs) {
  std::ostringstream out;
  EXPECT_EQ(cmd_figure2(out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("matmult"), std::string::npos);
  EXPECT_NE(s.find("273"), std::string::npos);
}

TEST(CliDispatcher, UnknownCommand) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"bogus"}, out, err), ExitCode::kUsage);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(CliDispatcher, NoArgs) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({}, out, err), ExitCode::kUsage);
}

TEST(CliDispatcher, MissingFileArgument) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"analyze"}, out, err), ExitCode::kUsage);
}

TEST(CliDispatcher, UnreadableFile) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"analyze", "/nonexistent/nest.loop"}, out, err),
            ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

const char* kOutOfBounds = "array A[4];\nfor i = 1 to 10\n  use A[i];\n";

TEST(CliLint, CleanInputExitsZero) {
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(kExample8, {}, out), ExitCode::kSuccess);
  EXPECT_EQ(out.str().find(" error: "), std::string::npos);
}

TEST(CliLint, OutOfBoundsFixtureReportsE001) {
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(kOutOfBounds, {}, out, "bad.loop"), ExitCode::kDiagnostics);
  std::string s = out.str();
  EXPECT_NE(s.find("bad.loop:3:7: error:"), std::string::npos);
  EXPECT_NE(s.find("[LMRE-E001]"), std::string::npos);
}

TEST(CliLint, JsonEmitsEnvelopedDiagnostics) {
  std::ostringstream out;
  LintCliOptions opts;
  opts.json = true;
  EXPECT_EQ(cmd_lint(kOutOfBounds, opts, out, "bad.loop"),
            ExitCode::kDiagnostics);
  std::string s = out.str();
  // The versioned envelope wraps a result object holding the diagnostics
  // array; machine-checkable fields present.
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"tool\": \"lmre\""), std::string::npos);
  EXPECT_NE(s.find("\"command\": \"lint\""), std::string::npos);
  EXPECT_NE(s.find("\"diagnostics\""), std::string::npos);
  EXPECT_NE(s.find("\"id\": \"LMRE-E001\""), std::string::npos);
  EXPECT_NE(s.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(s.find("\"file\": \"bad.loop\""), std::string::npos);
}

TEST(CliLint, StrictTurnsWarningsIntoNonzeroExit) {
  // Unused array: a warning, so kSuccess normally and kDiagnostics under
  // --strict.
  const char* src = "array B[5];\nfor i = 1 to 3\n  use A[i];\n";
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(src, {}, out), ExitCode::kSuccess);
  LintCliOptions strict;
  strict.strict = true;
  std::ostringstream out2;
  EXPECT_EQ(cmd_lint(src, strict, out2), ExitCode::kDiagnostics);
}

TEST(CliLint, ExplicitPlanIsRecertified) {
  // Interchange is illegal for distance (1, -1): documented ID, exit 3.
  const char* src = "for i = 1 to 6\n  for j = 1 to 6\n    A[i][j] = A[i-1][j+1];\n";
  LintCliOptions opts;
  opts.plan = IntMat{{0, 1}, {1, 0}};
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(src, opts, out), ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E013]"), std::string::npos);
}

TEST(CliLint, AuditedOptimizerPlanCertifies) {
  LintCliOptions opts;
  opts.audit_plan = true;
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(kExample8, opts, out), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("[LMRE-N016]"), std::string::npos);
}

std::string write_temp(const std::string& name, const std::string& content) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << content;
  return path;
}

// An unrecognized flag exits kUsage naming the flag and the verb -- before
// it is mistaken for the input path, and wherever it appears.
void expect_flag_refused(const std::vector<std::string>& args,
                         const std::string& flag) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(args, out, err), ExitCode::kUsage) << flag;
  EXPECT_NE(err.str().find("lmre " + args[0] + ": unknown flag '" + flag + "'"),
            std::string::npos)
      << err.str();
  EXPECT_EQ(err.str().find("cannot open"), std::string::npos) << err.str();
  EXPECT_TRUE(out.str().empty()) << out.str();
}

TEST(CliDispatcher, ThreadsIsBatchOnly) {
  std::string path = write_temp("threads_optimize.loop", kExample8);
  expect_flag_refused({"optimize", "--threads=2", path}, "--threads=2");
}

TEST(CliDispatcher, FlagOfAnotherVerbIsRefused) {
  std::string path = write_temp("strict_analyze.loop", kExample8);
  expect_flag_refused({"analyze", "--strict", path}, "--strict");
}

TEST(CliDispatcher, TrailingUnknownFlagIsRefused) {
  std::string path = write_temp("bogus_optimize.loop", kExample8);
  expect_flag_refused({"optimize", path, "--bogus"}, "--bogus");
}

TEST(CliDispatcher, ParseErrorFormatsFileLineColumn) {
  std::string path = write_temp("truncated.loop", "for i = 1 to\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"analyze", path}, out, err), ExitCode::kDiagnostics);
  // The input ends mid-statement, so the position is end-of-input: 2:1.
  EXPECT_NE(err.str().find(path + ":2:1: error:"), std::string::npos);
}

TEST(CliDispatcher, LintVerbWithPlanFlag) {
  std::string path = write_temp(
      "skewed.loop", "for i = 1 to 6\n  for j = 1 to 6\n    A[i][j] = A[i-1][j+1];\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"lint", "--plan=0 1; 1 0", path}, out, err),
            ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E013]"), std::string::npos);
}

TEST(CliDispatcher, LintJsonVerb) {
  std::string path = write_temp("oob.loop", kOutOfBounds);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"lint", "--json", path}, out, err),
            ExitCode::kDiagnostics);
  EXPECT_EQ(out.str().front(), '{');
  EXPECT_NE(out.str().find("\"command\": \"lint\""), std::string::npos);
  EXPECT_NE(out.str().find("\"id\": \"LMRE-E001\""), std::string::npos);
}

// The verify verb's exit-code contract: 0 certified, 2 bad plan spec,
// 3 refuted/unproven, 1 structurally unsupported input.

TEST(CliVerify, AuditModeCertifiesOptimizerPlan) {
  VerifyCliOptions opts;
  std::ostringstream out;
  EXPECT_EQ(cmd_verify(kExample8, opts, out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("optimize plan (method"), std::string::npos);
  EXPECT_NE(s.find("certified: yes"), std::string::npos);
  EXPECT_NE(s.find("[LMRE-N016]"), std::string::npos);
  EXPECT_NE(s.find("checker: ok"), std::string::npos);
}

TEST(CliVerify, ReversalRefutedWithWitnessExitsDiagnostics) {
  std::string path = write_temp(
      "skew_verify.loop",
      "for i = 1 to 6\n  for j = 1 to 6\n    A[i][j] = A[i-1][j+1];\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"verify", "--plan=0 1; 1 0", path}, out, err),
            ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E013]"), std::string::npos);
  EXPECT_NE(out.str().find("[LMRE-E019]"), std::string::npos);
  EXPECT_NE(out.str().find("certified: no"), std::string::npos);
}

TEST(CliVerify, BadPlanSpecExitsUsage) {
  std::string path = write_temp("plain_verify.loop", kExample8);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"verify", "--plan=banana", path}, out, err),
            ExitCode::kUsage);
}

TEST(CliVerify, MultiPhaseSourceExitsFailure) {
  VerifyCliOptions opts;
  std::ostringstream out;
  ExitCode rc = cmd_verify(R"(
    array A[8];
    phase p { for i = 1 to 8  A[i] = 0; }
    phase c { for i = 1 to 8  B[i] = A[i]; }
  )",
                           opts, out);
  EXPECT_EQ(rc, ExitCode::kFailure);
  EXPECT_NE(out.str().find("single-nest"), std::string::npos);
}

TEST(CliVerify, JsonEmitsCertificateAndCheckerVerdict) {
  std::string path = write_temp("plain_verify.loop", kExample8);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"verify", "--json", "--plan=1 0; 0 1", path}, out, err),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"command\": \"verify\""), std::string::npos);
  EXPECT_NE(s.find("\"certified\": true"), std::string::npos);
  EXPECT_NE(s.find("\"checker\""), std::string::npos);
  EXPECT_NE(s.find("\"ok\": true"), std::string::npos);
}

TEST(CliAnalyzeJson, EnvelopeWrapsResult) {
  std::ostringstream out;
  EXPECT_EQ(cmd_analyze(kExample8, out, "<input>", /*json=*/true), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"command\": \"analyze\""), std::string::npos);
  EXPECT_NE(s.find("\"mws_exact\": 44"), std::string::npos);
}

TEST(CliOptimizeJson, EnvelopeWrapsResult) {
  std::ostringstream out;
  EXPECT_EQ(cmd_optimize(kExample8, out, "<input>", {}, /*json=*/true),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"command\": \"optimize\""), std::string::npos);
  EXPECT_NE(s.find("\"method\": \"row-minimizer\""), std::string::npos);
}

// ---- verify_limit gating ----------------------------------------------------
// A 2000x1500 nest (3.0 M iterations) is past the default 2 M verify_limit:
// every verb skips or refuses the exhaustive trace exactly as the session's
// batch/serve payloads do, because both run the same handlers.

const char* kPastVerifyLimit = R"(
  for i = 1 to 2000
    for j = 1 to 1500
      A[i][j] = A[i-1][j+1];
)";

TEST(CliVerifyLimit, MrcTextRefusesLikeTheSession) {
  std::ostringstream out;
  EXPECT_EQ(cmd_mrc(kPastVerifyLimit, {}, out), ExitCode::kFailure);
  EXPECT_EQ(out.str(),
            "mrc needs an exhaustive trace; iteration volume exceeds the "
            "verify limit\n");
  MrcCliOptions json;
  json.json = true;
  std::ostringstream jout;
  EXPECT_EQ(cmd_mrc(kPastVerifyLimit, json, jout), ExitCode::kFailure);
  EXPECT_NE(jout.str().find("\"too_large\""), std::string::npos);
}

TEST(CliVerifyLimit, OptimizeJsonMatchesTheSessionPayload) {
  std::ostringstream out;
  EXPECT_EQ(cmd_optimize(kPastVerifyLimit, out, "<input>", {}, /*json=*/true),
            ExitCode::kSuccess);
  const std::string s = out.str();
  EXPECT_EQ(s.find("\"mws_before\""), std::string::npos);
  EXPECT_EQ(s.find("\"mws_after\""), std::string::npos);
  EXPECT_NE(s.find("\"objective_value\": 1500,"), std::string::npos);

  AnalysisSession session;
  AnalysisResult res = session.run(
      AnalysisRequest{kPastVerifyLimit, "big", AnalysisRequest::Kind::kOptimize});
  EXPECT_EQ(res.status, ExitCode::kSuccess);
  EXPECT_NE(res.payload.find("\"objective_value\":1500,"), std::string::npos);
  EXPECT_EQ(res.payload.find("\"mws_after\""), std::string::npos);
}

TEST(CliVerifyLimit, TextSaysTheExactWindowWasSkipped) {
  const std::string skipped =
      "exact window: skipped (iteration volume exceeds the verify limit)\n";
  std::ostringstream out;
  EXPECT_EQ(cmd_analyze(kPastVerifyLimit, out), ExitCode::kSuccess);
  const std::string s = out.str();
  EXPECT_NE(s.find("A      4,004,001  3,003,499     -               1,500    -"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find(skipped), std::string::npos);

  std::ostringstream opt;
  EXPECT_EQ(cmd_optimize(kPastVerifyLimit, opt), ExitCode::kSuccess);
  EXPECT_NE(opt.str().find(skipped), std::string::npos);
}

// ---- batch verb ------------------------------------------------------------

TEST(CliBatch, DirectoryExpansionAndTextTable) {
  std::string dir = ::testing::TempDir() + "batch_text";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/b.loop") << kExample8;
  std::ofstream(dir + "/a.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::ofstream(dir + "/notes.txt") << "not a loop file";
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", dir}, out, err), ExitCode::kSuccess);
  std::string s = out.str();
  // Sorted *.loop only; the .txt is skipped.
  size_t a = s.find("a.loop"), b = s.find("b.loop");
  EXPECT_NE(a, std::string::npos);
  EXPECT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_EQ(s.find("notes.txt"), std::string::npos);
  EXPECT_NE(s.find("2 files, 2 ok"), std::string::npos);
}

TEST(CliBatch, ExitCodeIsWorstPerFileStatus) {
  std::string dir = ::testing::TempDir() + "batch_worst";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/good.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::ofstream(dir + "/bad.loop") << kOutOfBounds;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", dir}, out, err), ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("diagnostics"), std::string::npos);
}

TEST(CliBatch, MissingInputFails) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", "/nonexistent/corpus"}, out, err),
            ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(CliBatch, JsonColdAndWarmRunsAreByteIdentical) {
  std::string dir = ::testing::TempDir() + "batch_json";
  std::string cache = ::testing::TempDir() + "batch_json_cache";
  std::filesystem::remove_all(cache);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/x.loop") << kExample8;
  std::ofstream(dir + "/y.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::string metrics = ::testing::TempDir() + "batch_json_metrics.json";

  std::ostringstream cold, warm, err;
  EXPECT_EQ(run_cli({"batch", "--json", "--cache-dir=" + cache, dir}, cold, err),
            ExitCode::kSuccess);
  EXPECT_EQ(run_cli({"batch", "--json", "--threads=4", "--cache-dir=" + cache,
                     "--metrics=" + metrics, dir},
                    warm, err),
            ExitCode::kSuccess);
  // Warm run at a different thread count: byte-identical result document.
  EXPECT_EQ(cold.str(), warm.str());
  EXPECT_NE(cold.str().find("\"command\": \"batch\""), std::string::npos);
  EXPECT_NE(cold.str().find("\"schema_version\": 2"), std::string::npos);

  // The warm run's metrics report every file as a (disk) cache hit.
  std::ifstream mf(metrics);
  ASSERT_TRUE(mf.good());
  std::stringstream ms;
  ms << mf.rdbuf();
  EXPECT_NE(ms.str().find("\"command\": \"batch-metrics\""), std::string::npos);
  EXPECT_NE(ms.str().find("\"cache.hit_rate\": 1"), std::string::npos);
  EXPECT_NE(ms.str().find("\"runs.cached\": 2"), std::string::npos);
}

TEST(CliBatch, ThreadsMustBeAWholeInteger) {
  std::string path = write_temp("threads_batch.loop", kExample8);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", "--threads=4x", path}, out, err),
            ExitCode::kUsage);
  EXPECT_NE(err.str().find("bad --threads value: --threads=4x"),
            std::string::npos)
      << err.str();
}

// A numeric flag value with trailing junk exits kUsage naming the value,
// before any server starts or request is sent.
void expect_bad_value(const std::vector<std::string>& args,
                      const std::string& flag, const std::string& arg) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(args, out, err), ExitCode::kUsage) << arg;
  EXPECT_NE(err.str().find("bad " + flag + " value: " + arg), std::string::npos)
      << err.str();
  EXPECT_TRUE(out.str().empty()) << out.str();
}

TEST(CliNumericFlags, WorkersRejectsJunk) {
  expect_bad_value({"serve", "--stdio", "--workers=2x"}, "--workers",
                   "--workers=2x");
}

TEST(CliNumericFlags, QueueDepthRejectsJunk) {
  expect_bad_value({"serve", "--stdio", "--queue-depth=8q"}, "--queue-depth",
                   "--queue-depth=8q");
}

TEST(CliNumericFlags, CacheShardsRejectsJunk) {
  expect_bad_value({"serve", "--stdio", "--cache-shards=4.5"}, "--cache-shards",
                   "--cache-shards=4.5");
}

TEST(CliNumericFlags, CacheTtlRejectsJunk) {
  expect_bad_value({"serve", "--stdio", "--cache-ttl=10s"}, "--cache-ttl",
                   "--cache-ttl=10s");
}

TEST(CliNumericFlags, CacheBytesRejectsJunk) {
  expect_bad_value({"serve", "--stdio", "--cache-bytes=1MB"}, "--cache-bytes",
                   "--cache-bytes=1MB");
}

TEST(CliNumericFlags, MrcSampleRateRejectsJunk) {
  std::string path = write_temp("sample_rate_mrc.loop", kExample8);
  expect_bad_value({"mrc", "--sample-rate=0.5x", path}, "--sample-rate",
                   "--sample-rate=0.5x");
}

TEST(CliNumericFlags, RequestSampleRateRejectsJunk) {
  std::string path = write_temp("sample_rate_request.loop", kExample8);
  expect_bad_value({"request", "--tcp=127.0.0.1:1", "--sample-rate=0.5x", path},
                   "--sample-rate", "--sample-rate=0.5x");
}

TEST(CliNumericFlags, DeadlineRejectsJunk) {
  std::string path = write_temp("deadline_request.loop", kExample8);
  expect_bad_value({"request", "--tcp=127.0.0.1:1", "--deadline=50ms", path},
                   "--deadline", "--deadline=50ms");
}

TEST(CliNumericFlags, WholeValuesStillParse) {
  // The whole-value parser keeps accepting what the verbs documented.
  std::string path = write_temp("sample_rate_ok.loop", kExample8);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"mrc", "--sample-rate=0.5", path}, out, err),
            ExitCode::kSuccess)
      << err.str();
}

TEST(CliBatch, OutputIsIdenticalAtEveryThreadCount) {
  // Fresh runs (no cache) at two fan-out widths: each file is analyzed on
  // one thread either way, and the document is in sorted input order.
  std::string dir = ::testing::TempDir() + "batch_threads";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/a.loop") << kExample8;
  std::ofstream(dir + "/b.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::ofstream(dir + "/c.loop") << kOutOfBounds;
  std::ofstream(dir + "/d.loop") << "for i = 1 to 6\n  for j = 1 to 6\n"
                                    "    B[i + j] = B[i + j - 1];\n";
  std::ostringstream serial, wide, err;
  run_cli({"batch", "--json", "--threads=1", dir}, serial, err);
  run_cli({"batch", "--json", "--threads=4", dir}, wide, err);
  EXPECT_NE(serial.str().find("\"command\": \"batch\""), std::string::npos);
  EXPECT_EQ(serial.str(), wide.str());
}

TEST(CliVersion, TextReportsSchemaAndBuild) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"version"}, out, err), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("schema_version 2"), std::string::npos);
  EXPECT_NE(out.str().find("build:"), std::string::npos);
  EXPECT_NE(out.str().find("C++"), std::string::npos);

  // `lmre --version` is the conventional spelling of the same command.
  std::ostringstream dashed;
  EXPECT_EQ(run_cli({"--version"}, dashed, err), ExitCode::kSuccess);
  EXPECT_EQ(dashed.str(), out.str());
}

TEST(CliVersion, JsonUsesTheStandardEnvelope) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"version", "--json"}, out, err), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("\"command\": \"version\""), std::string::npos);
  EXPECT_NE(out.str().find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(out.str().find("\"compiler\""), std::string::npos);
  EXPECT_NE(out.str().find("\"cxx_standard\""), std::string::npos);
}

TEST(CliServe, RejectsMissingTransport) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"serve"}, out, err), ExitCode::kUsage);
  EXPECT_NE(err.str().find("socket path, --tcp=HOST:PORT, or --stdio"),
            std::string::npos);
}

TEST(CliServe, RejectsMultipleTransports) {
  // Each pair of transports must be refused, not silently preferred.
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"serve", "/tmp/a.sock", "--stdio"}, out, err),
            ExitCode::kUsage);
  EXPECT_EQ(run_cli({"serve", "/tmp/a.sock", "--tcp=127.0.0.1:0"}, out, err),
            ExitCode::kUsage);
  EXPECT_EQ(run_cli({"serve", "--stdio", "--tcp=127.0.0.1:0"}, out, err),
            ExitCode::kUsage);
  EXPECT_NE(err.str().find("exactly one transport"), std::string::npos);
}

TEST(CliServe, ValidatesTuningFlags) {
  struct Case {
    const char* flag;
    const char* needle;
  };
  const Case cases[] = {
      {"--queue-depth=0", "--queue-depth must be >= 1"},
      {"--queue-depth=abc", "bad --queue-depth value"},
      {"--queue=0", "--queue-depth must be >= 1"},  // legacy spelling
      {"--cache-shards=0", "--cache-shards must be >= 1"},
      {"--cache-shards=x", "bad --cache-shards value"},
      {"--cache-ttl=-1", "--cache-ttl must be >= 0"},
      {"--cache-ttl=soon", "bad --cache-ttl value"},
      {"--cache-bytes=-5", "--cache-bytes must be >= 0"},
      {"--cache-bytes=big", "bad --cache-bytes value"},
      {"--tcp=127.0.0.1", "bad --tcp value"},       // no port
      {"--tcp=127.0.0.1:99999", "bad --tcp value"},  // port out of range
  };
  for (const Case& c : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli({"serve", "--stdio", c.flag}, out, err),
              ExitCode::kUsage)
        << c.flag;
    EXPECT_NE(err.str().find(c.needle), std::string::npos)
        << c.flag << " -> " << err.str();
  }
}

TEST(CliServe, OverlongSocketPathNamesTheLimit) {
  // sun_path holds 107 bytes plus the NUL; the refusal must say so, not
  // just that listening failed.
  std::string path = "/tmp/" + std::string(195, 's');
  ASSERT_EQ(path.size(), 200u);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"serve", path}, out, err), ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot listen on " + path), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("107-byte limit"), std::string::npos) << err.str();
}

TEST(CliRequest, UnreachableSocketFails) {
  std::string missing = ::testing::TempDir() + "no_such_server.sock";
  std::string file = ::testing::TempDir() + "request_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", missing, file}, out, err), ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot connect"), std::string::npos);
}

TEST(CliRequest, UnreachableTcpServerFails) {
  // Port 1 on loopback: privileged and almost certainly unbound, so the
  // connect is refused rather than hanging.
  std::string file = ::testing::TempDir() + "request_tcp_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", "--tcp=127.0.0.1:1", file}, out, err),
            ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot connect"), std::string::npos);
}

TEST(CliRequest, TcpRejectsBadAddressAndExtraPositional) {
  std::string file = ::testing::TempDir() + "request_tcp_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", "--tcp=nowhere", file}, out, err),
            ExitCode::kUsage);
  EXPECT_NE(err.str().find("bad --tcp value"), std::string::npos);
  // With --tcp the socket positional must be dropped.
  std::ostringstream out2, err2;
  EXPECT_EQ(
      run_cli({"request", "--tcp=127.0.0.1:1", "/tmp/a.sock", file}, out2,
              err2),
      ExitCode::kUsage);
}

}  // namespace
}  // namespace lmre::tools
