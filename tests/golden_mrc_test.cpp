// Golden-file tests for `lmre mrc --json`: the enveloped miss-ratio-curve
// documents must match tests/golden/mrc_example*.json byte for byte.
//
//   mrc_example6.json        Example 6 (non-uniform references), identity
//                            order: 800 accesses, 182 distinct;
//   mrc_example8.json        Example 8, identity order: the (0,1) reuse
//                            generator gives a tight knee;
//   mrc_example8_plan.json   Example 8 under the optimizer's plan;
//   mrc_example10.json       Example 10, identity order: all 4131 reuses
//                            span exactly 687 distinct elements, so the
//                            curve is flat at 100% below the 687 knee and
//                            drops to the 1869/6000 cold floor there.  The
//                            capacity list pins 540 -- the paper's MWS --
//                            on the miss side: LRU needs 687, the forward-
//                            window policy only 540 (knee >= MWS, always);
//   mrc_example10_plan.json  Example 10 under the optimizer's plan: the
//                            reuse collapses to distance 1 and capacity
//                            540 is far past the knee, on the cold floor;
//   mrc_wide_box.json        a 2^62-element reference box, identity order.
//
// The payload comes from an AnalysisSession, so these goldens also pin
// what `lmre batch` and `lmre serve` embed for "mrc" requests.
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

void check_golden(std::vector<std::string> args, const std::string& input,
                  const std::string& golden_name) {
  std::string root = source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::string golden = read_file(root + "tests/golden/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "tests/golden/" << golden_name << " missing";

  args.insert(args.begin(), {"mrc", "--json"});
  args.push_back(root + input);
  std::ostringstream out, err;
  ExitCode rc = run_cli(args, out, err);
  EXPECT_EQ(rc, ExitCode::kSuccess) << err.str();
  EXPECT_EQ(out.str(), golden)
      << "mrc --json output drifted from the golden; if intentional, "
         "regenerate with scripts/regen_golden.sh";
}

TEST(GoldenMrc, Example6NonUniformIdentity) {
  check_golden({}, "tests/golden/example6.loop", "mrc_example6.json");
}

TEST(GoldenMrc, Example8Identity) {
  check_golden({}, "examples/loops/example8.loop", "mrc_example8.json");
}

TEST(GoldenMrc, Example8OptimizerPlan) {
  check_golden({"--plan"}, "examples/loops/example8.loop",
               "mrc_example8_plan.json");
}

TEST(GoldenMrc, Example10KneeVsPaperWindow) {
  check_golden({"--capacities=1,64,128,540,687,1024"},
               "tests/golden/example10.loop", "mrc_example10.json");
}

TEST(GoldenMrc, Example10OptimizerPlan) {
  check_golden({"--plan", "--capacities=1,64,128,540,687,1024"},
               "tests/golden/example10.loop", "mrc_example10_plan.json");
}

// The 2^62-element reference box: the exhaustive distances come from the
// trace engine's sparse table, addressed modulo 2^64.
TEST(GoldenMrc, WideBoxIdentity) {
  check_golden({}, "tests/golden/wide_box.loop", "mrc_wide_box.json");
}

}  // namespace
}  // namespace lmre::tools
