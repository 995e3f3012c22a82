// Golden-file and parity tests for the CLI documents of every analysis
// verb: one table, one row per pinned file under tests/golden.
//
// Every row runs `lmre <args> <input>` and compares stdout with its golden
// byte for byte (after normalizing the probed source-root prefix out of
// file names).  A --json row also names the session request the verb
// stands for -- its wire kind and "options" object -- and checks that the
// three front ends agree on it:
//   * the CLI document is exactly json_envelope(verb, payload) of the
//     payload AnalysisSession{}.run(request) computes, and the exit code is
//     the session's status;
//   * `serve_streams` answers the same request line with that payload,
//     byte for byte, and that status.
// So the goldens pin what `lmre batch` and `lmre serve` embed as well.
//
// The inputs are the paper's Examples 6, 8 and 10 and wide_box, the
// widest nest the exact engine addresses (a 2^62-element reference box,
// traced modulo 2^64):
//   cli_analyze_<ex>, cli_optimize_<ex>   text and --json documents;
//   cli_optimize_miss_ratio_<ex>.json     --objective=miss-ratio:64;
//   symbolic_example10.json               the Section 3.2 / 4.3 closed
//                                         forms (window 540);
//   symbolic_example6.json                the non-uniform decline
//                                         (LMRE-E017, exit 3);
//   verify_example10.json, _wide_box      audits of the optimizer's plan;
//   verify_example6.json                  an interchange certified at
//                                         direction-vector granularity;
//   verify_example8_witness.json          an i-reversal refuted with
//                                         iteration-pair witnesses (exit 3);
//   codegen_example{6,8,10}.json          identity-order C units with
//                                         window-sized buffers;
//   codegen_<ex>_<plan>.json              one row per trace drive: the
//                                         optimizer's plans for Examples
//                                         8 (a general T) and 10, the
//                                         wide box's sparse store, and
//                                         tiled identity, skew and signed
//                                         permutation plans;
//   mrc_<ex>[_plan].json                  miss-ratio curves, identity and
//                                         the optimizer's plan; Example 10
//                                         pins the LRU knee at 687 against
//                                         the paper's MWS of 540.
// Regenerate with scripts/regen_golden.sh after an intentional change.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden_util.h"
#include "runtime/session.h"
#include "server/server.h"
#include "server/wire.h"
#include "support/json.h"
#include "tools/commands.h"

namespace lmre::tools {
namespace {

using golden::read_file;
using golden::replace_all;
using golden::source_root;

struct Row {
  std::string suite;
  std::string name;
  std::vector<std::string> args;  ///< verb and flags; the input goes last
  std::string input;              ///< relative to the source root
  std::string golden;             ///< file name under tests/golden
  ExitCode rc = ExitCode::kSuccess;
  /// --json rows: the wire kind and "options" object of the same request;
  /// "" for text rows.
  std::string kind{};
  std::string options = "{}";
};

std::vector<Row> rows() {
  const ExitCode ok = ExitCode::kSuccess;
  const ExitCode diag = ExitCode::kDiagnostics;
  const std::string ex6 = "tests/golden/example6.loop";
  const std::string ex8 = "examples/loops/example8.loop";
  const std::string ex10 = "tests/golden/example10.loop";
  const std::string wide = "tests/golden/wide_box.loop";
  const std::string two_point = "examples/loops/2point.loop";
  const std::string row_sum = "examples/loops/row_sum.loop";
  const std::string caps = "--capacities=1,64,128,540,687,1024";
  const std::string caps_json = "\"capacities\":[1,64,128,540,687,1024]";
  std::vector<Row> r = {
      {"GoldenSymbolic", "Example10MatchesPaperFormulas",
       {"analyze", "--symbolic", "--json"}, ex10, "symbolic_example10.json", ok,
       "symbolic"},
      {"GoldenSymbolic", "Example6DeclinesNonUniform",
       {"analyze", "--symbolic", "--json"}, ex6, "symbolic_example6.json", diag,
       "symbolic"},
      {"GoldenVerify", "Example10AuditCertifiesOptimizerPlan",
       {"verify", "--json"}, ex10, "verify_example10.json", ok, "verify"},
      {"GoldenVerify", "Example6InterchangeUsesDirectionGranularity",
       {"verify", "--json", "--plan=0 1; 1 0"}, ex6, "verify_example6.json", ok,
       "verify", R"({"plan":"0 1; 1 0"})"},
      {"GoldenVerify", "WideBoxAuditCertifiesIdentity", {"verify", "--json"},
       wide, "verify_wide_box.json", ok, "verify"},
      {"GoldenVerify", "Example8ReversalRefutedWithWitnesses",
       {"verify", "--json", "--plan=-1 0; 0 1"}, ex8,
       "verify_example8_witness.json", diag, "verify",
       R"({"plan":"-1 0; 0 1"})"},
      {"GoldenCodegen", "Example6NonUniformIdentity", {"codegen", "--json"},
       ex6, "codegen_example6.json", ok, "codegen"},
      {"GoldenCodegen", "Example8WriteBackBuffer", {"codegen", "--json"}, ex8,
       "codegen_example8.json", ok, "codegen"},
      {"GoldenCodegen", "Example10PaperWindow", {"codegen", "--json"}, ex10,
       "codegen_example10.json", ok, "codegen"},
      {"GoldenCodegen", "Example8OptimizerPlan", {"codegen", "--json", "--plan"},
       ex8, "codegen_example8_plan.json", ok, "codegen", R"({"plan":"auto"})"},
      {"GoldenCodegen", "Example10OptimizerPlan",
       {"codegen", "--json", "--plan"}, ex10, "codegen_example10_plan.json", ok,
       "codegen", R"({"plan":"auto"})"},
      {"GoldenCodegen", "WideBoxSparseStore", {"codegen", "--json"}, wide,
       "codegen_wide_box.json", ok, "codegen"},
      {"GoldenCodegen", "TwoPointTiledIdentity",
       {"codegen", "--json", "--plan=tile:4,4"}, two_point,
       "codegen_2point_tile.json", ok, "codegen", R"({"plan":"tile:4,4"})"},
      {"GoldenCodegen", "TwoPointTiledSkew",
       {"codegen", "--json", "--plan=1 0; 1 1 | tile:4,8"}, two_point,
       "codegen_2point_skew_tile.json", ok, "codegen",
       R"({"plan":"1 0; 1 1 | tile:4,8"})"},
      {"GoldenCodegen", "RowSumTiledInterchange",
       {"codegen", "--json", "--plan=0 1; 1 0 | tile:5,3"}, row_sum,
       "codegen_row_sum_interchange_tile.json", ok, "codegen",
       R"({"plan":"0 1; 1 0 | tile:5,3"})"},
      {"GoldenMrc", "Example6NonUniformIdentity", {"mrc", "--json"}, ex6,
       "mrc_example6.json", ok, "mrc"},
      {"GoldenMrc", "Example8Identity", {"mrc", "--json"}, ex8,
       "mrc_example8.json", ok, "mrc"},
      {"GoldenMrc", "Example8OptimizerPlan", {"mrc", "--json", "--plan"}, ex8,
       "mrc_example8_plan.json", ok, "mrc", R"({"plan":"auto"})"},
      {"GoldenMrc", "Example10KneeVsPaperWindow", {"mrc", "--json", caps}, ex10,
       "mrc_example10.json", ok, "mrc", "{" + caps_json + "}"},
      {"GoldenMrc", "Example10OptimizerPlan", {"mrc", "--json", "--plan", caps},
       ex10, "mrc_example10_plan.json", ok, "mrc",
       R"({"plan":"auto",)" + caps_json + "}"},
      {"GoldenMrc", "WideBoxIdentity", {"mrc", "--json"}, wide,
       "mrc_wide_box.json", ok, "mrc"},
  };
  for (std::string ex : {"example10", "example6", "wide_box"}) {
    const std::string suite = "PaperExamples/GoldenCli";
    const std::string param = "/\"" + ex + "\"";
    const std::string input = "tests/golden/" + ex + ".loop";
    r.push_back({suite, "AnalyzeText" + param, {"analyze"}, input,
                 "cli_analyze_" + ex + ".txt"});
    r.push_back({suite, "AnalyzeJson" + param, {"analyze", "--json"}, input,
                 "cli_analyze_" + ex + ".json", ok, "analyze"});
    r.push_back({suite, "OptimizeText" + param, {"optimize"}, input,
                 "cli_optimize_" + ex + ".txt"});
    r.push_back({suite, "OptimizeJson" + param, {"optimize", "--json"}, input,
                 "cli_optimize_" + ex + ".json", ok, "optimize"});
    r.push_back({suite, "OptimizeMissRatioJson" + param,
                 {"optimize", "--json", "--objective=miss-ratio:64"}, input,
                 "cli_optimize_miss_ratio_" + ex + ".json", ok, "optimize",
                 R"({"objective":"miss-ratio:64"})"});
  }
  return r;
}

// The payload and status `serve_streams` answers `line` with.
std::pair<std::string, double> serve_payload(const std::string& line) {
  AnalysisServer server(ServerOptions{});
  std::istringstream in(line + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);
  std::string error;
  std::optional<WireValue> doc = parse_wire_json(out.str(), &error);
  const WireValue* response = doc ? doc->find("result") : nullptr;
  const WireValue* payload = response ? response->find("result") : nullptr;
  const WireValue* status = response ? response->find("status") : nullptr;
  if (!payload || !status) return {"malformed response: " + out.str(), -1};
  return {payload->raw, status->number};
}

class GoldenRow : public ::testing::Test {
 public:
  explicit GoldenRow(Row row) : row_(std::move(row)) {}

  void TestBody() override {
    const std::string root = source_root();
    if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
    const std::string golden = read_file(root + "tests/golden/" + row_.golden);
    ASSERT_FALSE(golden.empty()) << "tests/golden/" << row_.golden << " missing";

    std::vector<std::string> args = row_.args;
    args.push_back(root + row_.input);
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), row_.rc) << err.str();
    EXPECT_EQ(err.str(), "");
    const std::string cli = out.str();
    EXPECT_EQ(replace_all(cli, root + "tests/", "tests/"), golden)
        << "output drifted from tests/golden/" << row_.golden
        << "; if intentional, regenerate with scripts/regen_golden.sh";
    if (row_.kind.empty()) return;

    // The same request through the session and through serve.
    const std::string line = Json::object()
                                 .set("id", 1)
                                 .set("kind", row_.kind)
                                 .set("options", Json::raw(row_.options))
                                 .set("source", read_file(root + row_.input))
                                 .dump();
    ServerRequest req;
    std::string error;
    ASSERT_TRUE(parse_request(line, &req, &error)) << error;
    AnalysisResult res = AnalysisSession().run(req.analysis);
    EXPECT_EQ(res.status, row_.rc);
    EXPECT_EQ(cli, json_envelope(row_.args[0], Json::raw(res.payload)).dump(2) + '\n')
        << "--json is not the session payload";
    auto [payload, status] = serve_payload(line);
    EXPECT_EQ(payload, res.payload) << "serve answered another payload";
    EXPECT_EQ(status, to_int(row_.rc));
  }

 private:
  Row row_;
};

// One test per row, each under its own name.
const bool kRegistered = [] {
  for (const Row& row : rows()) {
    ::testing::RegisterTest(row.suite.c_str(), row.name.c_str(), nullptr,
                            nullptr, __FILE__, __LINE__,
                            [row]() -> ::testing::Test* { return new GoldenRow(row); });
  }
  return true;
}();

}  // namespace
}  // namespace lmre::tools
