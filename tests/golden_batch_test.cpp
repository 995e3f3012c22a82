// Golden-file test for `lmre batch --json` over the shipped corpus: the
// enveloped document must match tests/golden/batch_loops.json byte for
// byte (after normalizing the corpus path prefix out of the "file"
// fields).  This pins the schema_version-1 batch output shape; regenerate
// the golden with scripts/regen_golden.sh after an intentional change.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "golden_util.h"
#include "tools/commands.h"

namespace lmre::tools {
namespace {

using golden::read_file;
using golden::replace_all;
using golden::source_root;

TEST(GoldenBatch, JsonDocumentMatchesGolden) {
  std::string root = source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::string golden = read_file(root + "tests/golden/batch_loops.json");
  ASSERT_FALSE(golden.empty()) << "tests/golden/batch_loops.json missing";

  std::ostringstream out, err;
  ExitCode rc = run_cli({"batch", "--json", root + "examples/loops"}, out, err);
  EXPECT_EQ(rc, ExitCode::kSuccess) << err.str();

  // The "file" fields carry the probed path prefix; normalize it away so
  // the golden is independent of the build layout.
  std::string normalized =
      replace_all(out.str(), root + "examples/loops/", "examples/loops/");
  EXPECT_EQ(normalized, golden)
      << "batch --json output drifted from the golden; if intentional, "
         "regenerate with scripts/regen_golden.sh and bump schema notes";
}

}  // namespace
}  // namespace lmre::tools
