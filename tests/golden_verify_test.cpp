// Golden-file tests for `lmre verify --json`: the enveloped certificate
// documents must match tests/golden/verify_*.json byte for byte (after
// normalizing the probed source-root prefix out of diagnostic file names).
//
//   verify_example10.json         audit mode -- the optimizer's own plan
//                                 for Example 10, certified (exit 0);
//   verify_example6.json          interchange of Example 6's non-uniform
//                                 references -- the direction-vector path
//                                 (LMRE-W020), certified but untileable;
//   verify_example8_witness.json  a hand-built i-reversal of Example 8 --
//                                 refuted with concrete iteration-pair
//                                 witnesses (LMRE-E019, exit kDiagnostics);
//   verify_wide_box.json          audit mode over a 2^62-element reference
//                                 box (identity, certified).
//
// Regenerate with scripts/regen_golden.sh after an intentional schema
// change.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/commands.h"

namespace lmre::tools {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; probe plausible source roots.
std::string source_root() {
  for (const char* base : {"", "../", "../../", "../../../"}) {
    if (!read_file(std::string(base) + "tests/golden/example10.loop").empty()) {
      return base;
    }
  }
  return "?";
}

// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

// Runs `lmre verify --json [args...] <root+input>` and compares against
// tests/golden/<golden_name>, normalizing the path prefix.
void check_golden(const std::vector<std::string>& plan_args,
                  const std::string& input, const std::string& golden_name,
                  ExitCode want_rc) {
  std::string root = source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::string golden = read_file(root + "tests/golden/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "tests/golden/" << golden_name << " missing";

  std::vector<std::string> args = {"verify", "--json"};
  args.insert(args.end(), plan_args.begin(), plan_args.end());
  args.push_back(root + input);
  std::ostringstream out, err;
  ExitCode rc = run_cli(args, out, err);
  EXPECT_EQ(rc, want_rc) << err.str();

  std::string normalized = replace_all(out.str(), root + "tests/", "tests/");
  normalized = replace_all(normalized, root + "examples/", "examples/");
  EXPECT_EQ(normalized, golden)
      << "verify --json output drifted from the golden; if intentional, "
         "regenerate with scripts/regen_golden.sh";
}

TEST(GoldenVerify, Example10AuditCertifiesOptimizerPlan) {
  check_golden({}, "tests/golden/example10.loop", "verify_example10.json",
               ExitCode::kSuccess);
}

TEST(GoldenVerify, Example6InterchangeUsesDirectionGranularity) {
  check_golden({"--plan=0 1; 1 0"}, "tests/golden/example6.loop",
               "verify_example6.json", ExitCode::kSuccess);
}

// The 2^62-element reference box: the audit's exact window check runs on
// the trace engine like every other nest.
TEST(GoldenVerify, WideBoxAuditCertifiesIdentity) {
  check_golden({}, "tests/golden/wide_box.loop", "verify_wide_box.json",
               ExitCode::kSuccess);
}

TEST(GoldenVerify, Example8ReversalRefutedWithWitnesses) {
  check_golden({"--plan=-1 0; 0 1"}, "examples/loops/example8.loop",
               "verify_example8_witness.json", ExitCode::kDiagnostics);
}

}  // namespace
}  // namespace lmre::tools
