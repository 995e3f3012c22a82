#include <gtest/gtest.h>

#include <sstream>

#include "support/error.h"
#include "support/json.h"
#include "tools/commands.h"

namespace lmre {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::number(Int{-42}).dump(), "-42");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
}

TEST(Json, Escaping) {
  EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(Json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(Json::escape("line\nbreak\t"), "line\\nbreak\\t");
  EXPECT_EQ(Json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ObjectCompact) {
  Json j = Json::object().set("b", Int{2}).set("a", "x");
  // std::map keeps keys sorted.
  EXPECT_EQ(j.dump(), "{\"a\":\"x\",\"b\":2}");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, ArrayCompact) {
  Json j = Json::array();
  j.push(Int{1}).push("two").push(Json::boolean(false));
  EXPECT_EQ(j.dump(), "[1,\"two\",false]");
}

TEST(Json, NestedIndented) {
  Json j = Json::object();
  j.set("list", Json::array().push(Int{1}).push(Int{2}));
  std::string s = j.dump(2);
  EXPECT_EQ(s,
            "{\n  \"list\": [\n    1,\n    2\n  ]\n}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(2), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");
}

TEST(Json, TypeMisuseThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", Int{1}), InvalidArgument);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(Int{1}), InvalidArgument);
}

TEST(Json, OverwriteKey) {
  Json j = Json::object().set("k", Int{1});
  j.set("k", Int{2});
  EXPECT_EQ(j.dump(), "{\"k\":2}");
}

TEST(Json, RawSplicesPreSerializedText) {
  // Json::raw lets the batch emitter embed an already-serialized cached
  // payload without reparsing; the text is emitted verbatim.
  Json j = Json::object().set("result", Json::raw("{\"mws\":21}"));
  EXPECT_EQ(j.dump(), "{\"result\":{\"mws\":21}}");
  Json arr = Json::array();
  arr.push(Json::raw("[1,2]")).push(Int{3});
  EXPECT_EQ(arr.dump(), "[[1,2],3]");
}

TEST(Json, EnvelopeShape) {
  Json env = json_envelope("analyze", Json::object().set("x", Int{1}));
  EXPECT_EQ(env.dump(),
            "{\"command\":\"analyze\",\"result\":{\"x\":1},"
            "\"schema_version\":2,\"tool\":\"lmre\"}");
}

TEST(CliJson, AnalyzeEmitsWellFormedDocument) {
  std::ostringstream out;
  ExitCode rc = tools::cmd_analyze(R"(
    for i = 1 to 25
      for j = 1 to 10
        X[2*i + 5*j + 1] = X[2*i + 5*j + 5];
  )",
                                   out, "<input>", /*json=*/true);
  EXPECT_EQ(rc, ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"tool\": \"lmre\""), std::string::npos);
  EXPECT_NE(s.find("\"mws_exact\": 44"), std::string::npos);
  EXPECT_NE(s.find("\"distinct_exact\": 94"), std::string::npos);
  EXPECT_NE(s.find("\"kind\": \"flow\""), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(CliJson, OptimizeEmitsTransform) {
  std::ostringstream out;
  ExitCode rc = tools::cmd_optimize(R"(
    for i = 1 to 25
      for j = 1 to 10
        X[2*i + 5*j + 1] = X[2*i + 5*j + 5];
  )",
                                    out, "<input>", {}, /*json=*/true);
  EXPECT_EQ(rc, ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("\"method\": \"row-minimizer\""), std::string::npos);
  EXPECT_NE(s.find("\"mws_before\": 44"), std::string::npos);
  EXPECT_NE(s.find("\"mws_after\": 21"), std::string::npos);
}

TEST(CliJson, DispatcherFlag) {
  std::ostringstream out, err;
  // Write a temp file through stdin-less path: use '-' is awkward in tests;
  // rely on the unreadable-file path keeping exit codes sane instead.
  EXPECT_EQ(tools::run_cli({"analyze", "--json"}, out, err), ExitCode::kUsage);
}

}  // namespace
}  // namespace lmre
