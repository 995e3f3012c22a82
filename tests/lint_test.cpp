// Fixtures for every lint check ID: each rule has a positive fixture (the
// finding fires, with the documented ID and severity) and the shipped
// examples act as the negative corpus (ExamplesLintClean: no errors, no
// warnings).  See src/lint/lint.h for the check-ID table.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "linalg/mat.h"
#include "lint/lint.h"
#include "program/program.h"
#include "support/error.h"

namespace lmre {
namespace {

LintResult lint_source(const std::string& source, const LintOptions& opts = {}) {
  NestSourceMap map;
  LoopNest nest = parse_nest(source, &map);
  return lint_nest(nest, &map, opts);
}

bool has_id(const LintResult& res, const std::string& id) {
  return std::any_of(res.diagnostics.begin(), res.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.id == id; });
}

const Diagnostic* find_id(const LintResult& res, const std::string& id) {
  for (const Diagnostic& d : res.diagnostics)
    if (d.id == id) return &d;
  return nullptr;
}

TEST(LintChecks, RegistryListsStableUniqueIds) {
  const auto& checks = lint_checks();
  ASSERT_GE(checks.size(), 17u);
  std::vector<std::string> ids;
  for (const auto& c : checks) {
    std::string id = c.id;
    // LMRE-<severity letter><3 digits>.
    ASSERT_EQ(id.size(), 9u) << id;
    EXPECT_EQ(id.substr(0, 5), "LMRE-") << id;
    EXPECT_TRUE(id[5] == 'E' || id[5] == 'W' || id[5] == 'N') << id;
    ids.push_back(id);
    EXPECT_NE(std::string(c.name), "") << id;
    EXPECT_NE(std::string(c.precondition), "") << id;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate check ID";
}

TEST(LintSubscriptBounds, SpanExceedingExtentIsError) {
  LintResult res = lint_source(R"(
    array A[4];
    for i = 1 to 10
      use A[i];
  )");
  const Diagnostic* d = find_id(res, "LMRE-E001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("declared extent is 4"), std::string::npos);
  EXPECT_TRUE(d->span.valid());
  EXPECT_EQ(d->span.line, 4);
  EXPECT_FALSE(res.clean());
}

TEST(LintSubscriptBounds, WindowOutsideBothConventionsIsWarning) {
  // Range [9, 13] fits in extent 10 (span 5) but lies in neither the
  // 0-based window [0, 9] nor the 1-based window [1, 10].
  LintResult res = lint_source(R"(
    array A[10];
    for i = 1 to 5
      use A[i + 8];
  )");
  EXPECT_FALSE(has_id(res, "LMRE-E001"));
  const Diagnostic* d = find_id(res, "LMRE-W002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(res.clean());
}

TEST(LintSubscriptBounds, NegativeBaseIsANote) {
  LintResult res = lint_source(R"(
    array A[10];
    for i = 1 to 5
      use A[i - 6];
  )");
  EXPECT_FALSE(has_id(res, "LMRE-E001"));
  EXPECT_FALSE(has_id(res, "LMRE-W002"));
  const Diagnostic* d = find_id(res, "LMRE-N015");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_TRUE(res.clean());
}

TEST(LintSubscriptBounds, InBoundsReferencesAreSilent) {
  LintResult res = lint_source(R"(
    array A[16];
    for i = 1 to 16
      use A[i];
  )");
  EXPECT_FALSE(has_id(res, "LMRE-E001"));
  EXPECT_FALSE(has_id(res, "LMRE-W002"));
  EXPECT_FALSE(has_id(res, "LMRE-N015"));
}

TEST(LintLoopRanges, EmptyLoopIsError) {
  // The parser rejects empty ranges outright, so this only arises for
  // programmatically built nests -- exactly what lint_nest(nullptr map)
  // is for.
  LoopNest nest({"i"}, IntBox({Range{5, 1}}), {{"A", {8}}},
                {Statement{{ArrayRef{0, AccessKind::kRead, IntMat{{1}}, IntVec{0}}}}});
  LintResult res = lint_nest(nest);
  const Diagnostic* d = find_id(res, "LMRE-E003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(d->span.valid());
  EXPECT_FALSE(res.clean());
}

TEST(LintLoopRanges, SingleIterationLoopIsANote) {
  LintResult res = lint_source(R"(
    for i = 3 to 3
      for j = 1 to 5
        use A[i][j];
  )");
  const Diagnostic* d = find_id(res, "LMRE-N004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_TRUE(res.clean());
}

TEST(LintUniformGeneration, MixedCoefficientsWarn) {
  // A[i] and A[2*i] are not uniformly generated (Section 3.1): the
  // distinct-access closed form does not apply to this pair.
  LintResult res = lint_source(R"(
    for i = 1 to 8
    {
      use A[i];
      use A[2*i];
    }
  )");
  const Diagnostic* d = find_id(res, "LMRE-W005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LintUniformGeneration, SharedCoefficientsAreSilent) {
  LintResult res = lint_source(R"(
    for i = 1 to 8
    {
      use A[i];
      use A[i + 3];
    }
  )");
  EXPECT_FALSE(has_id(res, "LMRE-W005"));
}

TEST(LintKernelDimension, EntangledTwoDimensionalKernelWarns) {
  // Access rows (1,1,0,0) and (0,1,1,0) share loop j: the kernel has
  // dimension 2 and the rows are entangled, so the Section 3.2 one-
  // dimensional-kernel closed form does not apply.
  LintResult res = lint_source(R"(
    for i = 1 to 3
      for j = 1 to 3
        for k = 1 to 3
          for l = 1 to 3
            use A[i + j][j + k];
  )");
  const Diagnostic* d = find_id(res, "LMRE-W006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LintKernelDimension, DisjointRowSupportIsExactAndSilent) {
  // out[i][j] under a 4-deep nest has a 2-d kernel but disjoint row
  // support: the distinct count is exact via the image cap, no warning.
  LintResult res = lint_source(R"(
    for i = 1 to 3
      for j = 1 to 3
        for k = 1 to 3
          for l = 1 to 3
            use A[i][j];
  )");
  EXPECT_FALSE(has_id(res, "LMRE-W006"));
}

TEST(LintKernelDimension, MultiRefKernelReuseIsTheDocumentedExtension) {
  // Two references with a nonempty kernel: the paper's Section 3.2 only
  // treats the single-reference case; lmre extends it and says so.
  LintResult res = lint_source(R"(
    for i = 1 to 4
      for j = 1 to 4
        for k = 1 to 4
          C[i][j] = C[i][j] + B[i][j][k];
  )");
  const Diagnostic* d = find_id(res, "LMRE-N007");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_TRUE(res.clean());
}

TEST(LintIterationVolume, ThresholdExceededWarns) {
  LintOptions opts;
  opts.volume_warn_threshold = 10;
  LintResult res = lint_source(R"(
    for i = 1 to 10
      for j = 1 to 10
        use A[i][j];
  )",
                               opts);
  const Diagnostic* d = find_id(res, "LMRE-W008");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(res.clean());
}

TEST(LintIterationVolume, TripCountProductOverflowIsError) {
  // Each loop alone fits in Int64; the product does not.
  LintResult res = lint_source(R"(
    for i = 1 to 4000000000
      for j = 1 to 4000000000
        use A[i];
  )");
  const Diagnostic* d = find_id(res, "LMRE-E009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(res.clean());
}

TEST(LintIterationVolume, ReferenceBoxOverflowIsError) {
  // Each reference fits its 10 x 10 extent (only the shifted read draws
  // LMRE-W002), but together the two span a box past 2^63 elements: the
  // trace engine cannot address it, so lint rejects the nest up front.
  LintResult res = lint_source(R"(
    array A[10][10];
    for i = 1 to 10
      for j = 1 to 10
        A[i][j] = A[i + 4611686018427387904][j + 4611686018427387904];
  )");
  const Diagnostic* d = find_id(res, "LMRE-E009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("reference box of 'A'"), std::string::npos)
      << d->message;
  EXPECT_FALSE(res.clean());
}

TEST(LintIterationVolume, SubscriptRangeOverflowIsOnlyE009) {
  // The subscript's range leaves Int64.  The bounds check skips it instead
  // of failing with LMRE-E000: LMRE-E009 already reports the array.
  LintResult res = lint_source(
      "array A[10];\nfor i = 1 to 10\n  use A[i + 9223372036854775800];\n");
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics[0].id, "LMRE-E009");
  EXPECT_EQ(res.diagnostics[0].severity, Severity::kError);
  EXPECT_TRUE(res.has_errors());
  EXPECT_FALSE(has_id(res, "LMRE-E000"));
}

TEST(LintIterationVolume, ProgramWideReferenceBoxOverflowIsE009) {
  // Each phase's box of A has ten elements, but A is one trace store
  // across the program, and the union of the two boxes has more than 2^63
  // elements.  Lint must refuse the program the trace cannot run.
  ProgramSourceMap pmap;
  Program p = parse_program(R"(
    array A[10];
    phase low { for i = 1 to 10  use A[i - 9223372036854775000]; }
    phase high { for i = 1 to 10  use A[i + 9223372036854775000]; }
  )",
                            &pmap);
  for (size_t k = 0; k < p.phase_count(); ++k) {
    LintResult phase = lint_nest(p.phase_nest(k));
    EXPECT_FALSE(has_id(phase, "LMRE-E009")) << k;
  }
  EXPECT_THROW(p.simulate(), OverflowError);
  LintResult res = lint_program(p, &pmap);
  const Diagnostic* d = find_id(res, "LMRE-E009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("reference box of 'A'"), std::string::npos) << d->message;
  EXPECT_TRUE(res.has_errors());
  EXPECT_FALSE(has_id(res, "LMRE-E000"));
}

TEST(LintIterationVolume, SingleLoopTripCountOverflowIsError) {
  // One loop alone spans more values than Int64 holds, so its trip count
  // overflows before any product is taken.  The constant subscript keeps
  // every other check quiet: LMRE-E009 must be the only finding, with no
  // LMRE-E000 from the loop-range check tripping over the same range.
  for (const char* range : {"-9223372036854775807 to 9223372036854775807",
                            "0 to 9223372036854775807"}) {
    SCOPED_TRACE(range);
    LintResult res = lint_source(std::string("for i = ") + range + "\n  use A[0];\n");
    ASSERT_EQ(res.diagnostics.size(), 1u);
    EXPECT_EQ(res.diagnostics[0].id, "LMRE-E009");
    EXPECT_EQ(res.diagnostics[0].severity, Severity::kError);
    EXPECT_FALSE(res.clean());
  }
}

TEST(LintArrayUsage, DeclaredButUnreferencedWarns) {
  LintResult res = lint_source(R"(
    array B[5];
    for i = 1 to 3
      use A[i];
  )");
  const Diagnostic* d = find_id(res, "LMRE-W010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("'B'"), std::string::npos);
}

TEST(LintArrayUsage, WriteOnlyArrayIsANote) {
  LintResult res = lint_source(R"(
    for i = 1 to 3
      A[i] = 0;
  )");
  const Diagnostic* d = find_id(res, "LMRE-N011");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_TRUE(res.clean());
}

TEST(LintArrayUsage, CrossPhaseReadSuppressesWriteOnly) {
  // A is written in the producer phase and only read in the consumer:
  // program-level lint must see the cross-phase read and stay silent.
  ProgramSourceMap pmap;
  Program p = parse_program(R"(
    array A[8];
    phase producer { for i = 1 to 8  A[i] = 0; }
    phase consumer { for i = 1 to 8  B[i] = A[i]; }
  )",
                            &pmap);
  LintResult res = lint_program(p, &pmap);
  for (const Diagnostic& d : res.diagnostics) {
    if (d.id == "LMRE-N011") {
      EXPECT_EQ(d.message.find("'A'"), std::string::npos) << d.message;
    }
  }
  // B is genuinely write-only across the whole program.
  EXPECT_TRUE(has_id(res, "LMRE-N011"));
}

TEST(LintDuplicateRefs, IdenticalRefsInOneStatementWarn) {
  LintResult res = lint_source(R"(
    for i = 1 to 4
      S[i] = A[i] + A[i];
  )");
  const Diagnostic* d = find_id(res, "LMRE-W012");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LintDuplicateRefs, ReadAndWriteOfSameCellAreDistinct) {
  LintResult res = lint_source(R"(
    for i = 1 to 4
      A[i] = A[i];
  )");
  EXPECT_FALSE(has_id(res, "LMRE-W012"));
}

// Dependence distance (1, -1): legal in original order, interchange
// reverses it, and tiling needs component-wise non-negative distances.
const char* kSkewedNest = R"(
  for i = 1 to 6
    for j = 1 to 6
      A[i][j] = A[i - 1][j + 1];
)";

TEST(LintTransformPlan, IllegalInterchangeIsError) {
  IntMat interchange{{0, 1}, {1, 0}};
  LintOptions opts;
  opts.plan = &interchange;
  LintResult res = lint_source(kSkewedNest, opts);
  const Diagnostic* d = find_id(res, "LMRE-E013");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(res.clean());
  EXPECT_FALSE(has_id(res, "LMRE-N016"));
}

TEST(LintTransformPlan, LegalButUntileablePlanWarns) {
  IntMat identity{{1, 0}, {0, 1}};
  LintOptions opts;
  opts.plan = &identity;
  LintResult res = lint_source(kSkewedNest, opts);
  EXPECT_FALSE(has_id(res, "LMRE-E013"));
  const Diagnostic* w = find_id(res, "LMRE-W014");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->severity, Severity::kWarning);
  // The plan is still certified legal.
  EXPECT_TRUE(has_id(res, "LMRE-N016"));
  EXPECT_TRUE(res.clean());
}

TEST(LintTransformPlan, NonUnimodularPlanIsError) {
  IntMat scale{{2, 0}, {0, 1}};
  LintOptions opts;
  opts.plan = &scale;
  LintResult res = lint_source(kSkewedNest, opts);
  const Diagnostic* d = find_id(res, "LMRE-E013");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("unimodular"), std::string::npos);
}

TEST(LintTransformPlan, AuditedOptimizerPlanIsCertified) {
  // The plan optimize_locality emits must re-certify against the nest's
  // own dependences: lint --plan is an independent audit of optimize.
  LintOptions opts;
  opts.audit_plan = true;
  LintResult res = lint_source(R"(
    for i = 1 to 25
      for j = 1 to 10
        X[2*i + 5*j + 1] = X[2*i + 5*j + 5];
  )",
                               opts);
  EXPECT_FALSE(has_id(res, "LMRE-E013"));
  EXPECT_TRUE(has_id(res, "LMRE-N016"));
}

TEST(LintOptions, EnabledIdsFilterRestrictsOutput) {
  LintOptions opts;
  opts.enabled_ids = {"LMRE-W010"};
  LintResult res = lint_source(R"(
    array B[5];
    array A[2];
    for i = 1 to 10
      use A[i];
  )",
                               opts);
  EXPECT_TRUE(has_id(res, "LMRE-W010"));
  EXPECT_FALSE(has_id(res, "LMRE-E001"));
  EXPECT_EQ(res.diagnostics.size(), 1u);
}

TEST(LintRender, TextAndJsonCarryIdAndPosition) {
  LintResult res = lint_source(R"(
    array A[4];
    for i = 1 to 10
      use A[i];
  )");
  ASSERT_FALSE(res.diagnostics.empty());
  std::string text = render_text(res.diagnostics, "bad.loop");
  EXPECT_NE(text.find("bad.loop:4:"), std::string::npos);
  EXPECT_NE(text.find("[LMRE-E001]"), std::string::npos);
  std::string json = render_json(res.diagnostics, "bad.loop").dump(2);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"id\": \"LMRE-E001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 4"), std::string::npos);
}

// ---------------------------------------------------------------------
// Every shipped .loop example must lint clean: no errors AND no
// warnings (notes are allowed -- they document idioms, not problems).

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string loops_dir() {
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (!read_file(std::string(base) + "matmult.loop").empty()) return base;
  }
  return "";
}

TEST(LintExamples, AllShippedLoopFilesLintClean) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    std::string source = read_file(entry.path().string());
    ASSERT_FALSE(source.empty()) << entry.path();
    ProgramSourceMap pmap;
    Program p = parse_program(source, &pmap);
    LintResult res = lint_program(p, &pmap);
    EXPECT_EQ(res.count(Severity::kError), 0u)
        << entry.path() << "\n" << render_text(res.diagnostics, entry.path().string());
    EXPECT_EQ(res.count(Severity::kWarning), 0u)
        << entry.path() << "\n" << render_text(res.diagnostics, entry.path().string());
    ++checked;
  }
  EXPECT_GE(checked, 16u) << "example corpus shrank unexpectedly";
}

}  // namespace
}  // namespace lmre
