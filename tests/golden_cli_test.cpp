// Golden-file tests for the `lmre analyze` and `lmre optimize` documents:
// text and --json, plus the miss-ratio objective, on the paper's Examples
// 10 and 6 must match tests/golden/cli_* byte for byte.
//
//   cli_analyze_<ex>.{txt,json}          dependence table + memory report
//   cli_optimize_<ex>.{txt,json}         window-minimizing transform,
//                                        certification, exact windows
//   cli_optimize_miss_ratio_<ex>.json    --objective=miss-ratio:64
//
// Example 10 is the Section 4.3 embedding (window 540 -> 1); Example 6 has
// non-uniform references, so the text documents carry the LMRE-W005 lint
// warning with its file name (normalized to the repo-relative path here).
// Regenerate with scripts/regen_golden.sh after an intentional change.

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

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

void check_golden(std::vector<std::string> args, const std::string& example,
                  const std::string& golden_name) {
  std::string root = source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::string golden = read_file(root + "tests/golden/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "tests/golden/" << golden_name << " missing";

  args.push_back(root + "tests/golden/" + example + ".loop");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(args, out, err), ExitCode::kSuccess) << err.str();
  EXPECT_EQ(err.str(), "");
  EXPECT_EQ(replace_all(out.str(), root + "tests/", "tests/"), golden)
      << "output drifted from tests/golden/" << golden_name
      << "; if intentional, regenerate with scripts/regen_golden.sh";
}

class GoldenCli : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenCli, AnalyzeText) {
  check_golden({"analyze"}, GetParam(),
               std::string("cli_analyze_") + GetParam() + ".txt");
}

TEST_P(GoldenCli, AnalyzeJson) {
  check_golden({"analyze", "--json"}, GetParam(),
               std::string("cli_analyze_") + GetParam() + ".json");
}

TEST_P(GoldenCli, OptimizeText) {
  check_golden({"optimize"}, GetParam(),
               std::string("cli_optimize_") + GetParam() + ".txt");
}

TEST_P(GoldenCli, OptimizeJson) {
  check_golden({"optimize", "--json"}, GetParam(),
               std::string("cli_optimize_") + GetParam() + ".json");
}

TEST_P(GoldenCli, OptimizeMissRatioJson) {
  check_golden({"optimize", "--json", "--objective=miss-ratio:64"}, GetParam(),
               std::string("cli_optimize_miss_ratio_") + GetParam() + ".json");
}

INSTANTIATE_TEST_SUITE_P(PaperExamples, GoldenCli,
                         ::testing::Values("example10", "example6"));

}  // namespace
}  // namespace lmre::tools
