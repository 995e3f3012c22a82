// Tests for the lmre serve subsystem (src/server): the wire-JSON reader
// with verbatim raw slices, request validation, and the AnalysisServer
// over all three transports (stdio, Unix socket, TCP) -- byte-identity
// with direct session runs, load-shedding at a full queue, single-flight
// coalescing of identical requests, deadline expiry, graceful drain,
// dead-client teardown, concurrent clients sharing one warm cache, cache
// hits answered at admission (never shed, one lookup per request), and the
// socket loop's guarantees on both socket transports (a client that never
// reads pins nothing, the 16 MiB line cap, line framing across writes).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/session.h"
#include "server/queue.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "support/json.h"

namespace lmre {
namespace {

// ---- wire reader -----------------------------------------------------------

TEST(Wire, ParsesScalarsWithRawSlices) {
  std::string error;
  auto v = parse_wire_json(R"( {"id": 42, "name": "a\nb", "ok": true,
                               "list": [1, 2.5, null]} )",
                           &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_EQ(v->kind, WireValue::Kind::kObject);

  const WireValue* id = v->find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->kind, WireValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(id->number, 42.0);
  EXPECT_EQ(id->raw, "42");  // verbatim input bytes, not re-encoded

  const WireValue* name = v->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->text, "a\nb");        // escapes decoded
  EXPECT_EQ(name->raw, R"("a\nb")");    // raw keeps them

  const WireValue* list = v->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->elements.size(), 3u);
  EXPECT_EQ(list->elements[2].kind, WireValue::Kind::kNull);
  EXPECT_EQ(list->raw, "[1, 2.5, null]");

  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Wire, DecodesUnicodeEscapes) {
  std::string error;
  auto v = parse_wire_json(R"("\u0041\u00e9\u20ac\ud83d\ude00")", &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->text, "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(Wire, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_wire_json("", &error).has_value());
  EXPECT_FALSE(parse_wire_json("{", &error).has_value());
  EXPECT_FALSE(parse_wire_json("{} trailing", &error).has_value());
  EXPECT_FALSE(parse_wire_json("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(parse_wire_json("\"\\x\"", &error).has_value());
  EXPECT_FALSE(parse_wire_json("\"\\ud800\"", &error).has_value());  // lone surrogate
  EXPECT_FALSE(parse_wire_json("nul", &error).has_value());
  EXPECT_FALSE(error.empty());  // failures always carry a message
  // Nesting past the depth cap must fail cleanly, not crash.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(parse_wire_json(deep, &error).has_value());
}

// ---- request validation ----------------------------------------------------

TEST(WireRequest, ParsesFullRequest) {
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id": "job-1", "kind": "lint", "source": "for i = 1 to 4\n  use A[i];",
          "options": {"deadline_ms": 250, "future_knob": true}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.id_json, "\"job-1\"");  // raw slice: quotes preserved
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kLint);
  EXPECT_EQ(req.analysis.source, "for i = 1 to 4\n  use A[i];");
  EXPECT_DOUBLE_EQ(req.deadline_ms, 250.0);
}

TEST(WireRequest, DefaultsAndNumericId) {
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"id": 7, "source": "x"})", &req, &error));
  EXPECT_EQ(req.id_json, "7");
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kFull);  // default kind
  EXPECT_DOUBLE_EQ(req.deadline_ms, 0.0);             // no deadline
}

TEST(WireRequest, RejectsSchemaViolations) {
  ServerRequest req;
  std::string error;
  EXPECT_FALSE(parse_request("[1,2]", &req, &error));
  EXPECT_FALSE(parse_request(R"({"kind": "full"})", &req, &error));  // no source
  EXPECT_FALSE(parse_request(R"({"source": 5})", &req, &error));
  EXPECT_FALSE(parse_request(R"({"source": "x", "kind": "bogus"})", &req, &error));
  EXPECT_FALSE(parse_request(R"({"source": "x", "options": []})", &req, &error));
  EXPECT_FALSE(
      parse_request(R"({"source": "x", "options": {"deadline_ms": -1}})", &req, &error));
  EXPECT_FALSE(parse_request(R"({"id": {"k": 1}, "source": "x"})", &req, &error));
  // The id survives a later schema error so the error response correlates.
  EXPECT_FALSE(parse_request(R"({"id": 9, "kind": "bogus", "source": "x"})", &req, &error));
  EXPECT_EQ(req.id_json, "9");
}

TEST(WireStatus, NamesAndExitCodeMapping) {
  EXPECT_STREQ(to_string(ServeStatus::kSuccess), "success");
  EXPECT_STREQ(to_string(ServeStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(ServeStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(ServeStatus::kBadRequest), "bad_request");
  EXPECT_EQ(serve_status(ExitCode::kSuccess), ServeStatus::kSuccess);
  EXPECT_EQ(serve_status(ExitCode::kDiagnostics), ServeStatus::kDiagnostics);
  EXPECT_EQ(static_cast<int>(ServeStatus::kOverflow), to_int(ExitCode::kOverflow));
}

// ---- spliced envelope ------------------------------------------------------

// The reference for serve_response / serve_error: the envelope built as a
// Json tree and dumped, which the spliced lines must equal byte for byte.
std::string tree_line(const std::string& id_json, ServeStatus status,
                      const std::string& body_key, Json body) {
  Json result = Json::object();
  result.set("id", Json::raw(id_json));
  result.set("status", static_cast<int>(status));
  result.set("status_name", to_string(status));
  result.set(body_key, std::move(body));
  return json_envelope("serve", std::move(result)).dump(0);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The source tree, seen from the test binary's cwd (<build>/tests).
std::string source_root() {
  for (const char* base : {"", "../", "../../", "../../../"}) {
    if (std::filesystem::exists(std::string(base) + "tests/golden/batch_loops.json")) {
      return base;
    }
  }
  return "?";
}

TEST(WireEnvelope, SplicedLinesMatchTheTreeBuiltEnvelope) {
  const std::string root = source_root();
  ASSERT_NE(root, "?") << "source tree not found from test cwd";
  // A real payload: the first file's result in the batch golden.
  std::string error;
  auto golden = parse_wire_json(read_text(root + "tests/golden/batch_loops.json"), &error);
  ASSERT_TRUE(golden.has_value()) << error;
  const WireValue* files = golden->find("result")->find("files");
  ASSERT_TRUE(files && !files->elements.empty());
  const std::string golden_payload = files->elements[0].find("result")->raw;
  ASSERT_GT(golden_payload.size(), 100u);

  const std::string ids[] = {R"("a\"b\\ é\n")", "-1.5e-3", "null", "42",
                             R"("")"};
  const std::string payloads[] = {"{}", golden_payload};
  const std::string messages[] = {"request queue full", "",
                                  "quote \" backslash \\ tab \t bell \x07 é"};
  for (int s = 0; s <= static_cast<int>(ServeStatus::kBadRequest); ++s) {
    const ServeStatus status = static_cast<ServeStatus>(s);
    for (const std::string& id : ids) {
      SCOPED_TRACE(std::string(to_string(status)) + " id " + id);
      for (const std::string& payload : payloads) {
        EXPECT_EQ(serve_response(id, status, payload),
                  tree_line(id, status, "result", Json::raw(payload)));
      }
      for (const std::string& message : messages) {
        EXPECT_EQ(serve_error(id, status, message),
                  tree_line(id, status, "error", Json::string(message)));
      }
    }
  }
}

// ---- lean request parse ----------------------------------------------------

// Every field parse_request fills, as one comparable string.
std::string describe(const ServerRequest& r) {
  std::ostringstream os;
  os << std::hexfloat << "id=" << r.id_json
     << " kind=" << to_string(r.analysis.kind()) << " deadline=" << r.deadline_ms
     << " plan=" << r.analysis.plan_spec() << " file=" << r.analysis.file
     << " source=" << r.analysis.source;
  if (const auto* c = r.analysis.codegen()) os << " run=" << c->run << " cc=" << c->cc;
  if (const auto* o = r.analysis.optimize()) os << " objective=" << o->objective;
  if (const auto* m = r.analysis.mrc()) {
    os << " rate=" << m->sample_rate << " caps=";
    for (Int c : m->capacities) os << c << ',';
  }
  return os.str();
}

// parse_request (the lean parse: no raw slice but the id's, the source
// moved out) against the full raw-everywhere tree of parse_wire_json
// through the same validation.
void expect_lean_parse_matches_full_tree(const std::string& line) {
  SCOPED_TRACE(line.substr(0, 120));
  ServerRequest lean;
  std::string lean_error;
  const bool lean_ok = parse_request(line, &lean, &lean_error);

  ServerRequest full;
  std::string full_error;
  std::optional<WireValue> tree = parse_wire_json(line, &full_error);
  const bool full_ok = tree && request_from_wire(*tree, &full, &full_error);

  EXPECT_EQ(lean_ok, full_ok);
  EXPECT_EQ(lean_error, full_error);
  EXPECT_EQ(describe(lean), describe(full));
  // So a bad_request line is the same bytes either way.
  EXPECT_EQ(serve_error(lean.id_json, ServeStatus::kBadRequest, lean_error),
            serve_error(full.id_json, ServeStatus::kBadRequest, full_error));
}

TEST(WireLeanParse, MatchesTheFullTreeOverThePerfbenchTemplates) {
  const std::string root = source_root();
  ASSERT_NE(root, "?") << "source tree not found from test cwd";
  // The seed-1 perfbench request lines: every warm_hits template and the
  // first cold_mix ones (all eight kinds, with and without options).
  std::istringstream in(read_text(root + "tests/wire/perfbench_seed1.ndjson"));
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    expect_lean_parse_matches_full_tree(line);
    ServerRequest req;
    std::string error;
    EXPECT_TRUE(parse_request(line, &req, &error)) << error;
    ++lines;
  }
  EXPECT_EQ(lines, 192);
}

// Every malformed line this suite feeds the server, plus one per schema
// rule, with the (id, error) the request parser has always given them:
// bad_request responses are byte-stable.
struct Malformed {
  std::string line;
  const char* id_json;
  const char* error;
};

std::vector<Malformed> malformed_lines() {
  return {
      {"", "null", "unexpected end of input at byte 0"},
      {"{", "null", "expected string at byte 1"},
      {"{} trailing", "null", "trailing bytes after JSON value at byte 3"},
      {R"({"a" 1})", "null", "expected ':' in object at byte 5"},
      {R"("\x")", "null", "invalid escape at byte 3"},
      {R"("\ud800")", "null", "unpaired surrogate at byte 7"},
      {"nul", "null", "invalid literal at byte 0"},
      {std::string(100, '[') + std::string(100, ']'), "null",
       "nesting too deep at byte 65"},
      {"[1,2]", "null", "request must be a JSON object"},
      {R"({"kind": "full"})", "null", R"(missing string field "source")"},
      {R"({"source": 5})", "null", R"(missing string field "source")"},
      {R"({"source": "x", "kind": "bogus"})", "null",
       R"("kind" must be one of lint|analyze|optimize|full|symbolic|verify|codegen|mrc)"},
      {R"({"source": "x", "options": []})", "null", R"("options" must be an object)"},
      {R"({"source": "x", "options": {"deadline_ms": -1}})", "null",
       R"("deadline_ms" must be a non-negative number)"},
      {R"({"id": {"k": 1}, "source": "x"})", "null",
       R"("id" must be a string, number, or null)"},
      {R"({"id": 9, "kind": "bogus", "source": "x"})", "9",
       R"("kind" must be one of lint|analyze|optimize|full|symbolic|verify|codegen|mrc)"},
      {"this is not json", "null", "invalid literal at byte 0"},
      {"not json", "null", "invalid literal at byte 0"},
      {R"({"id": 3, "schema_version": 3, "source": "x"})", "3",
       R"("schema_version" must be an integer in [1, 2])"},
      {R"({"id": 4, "schema_version": 1.5, "source": "x"})", "4",
       R"("schema_version" must be an integer in [1, 2])"},
      {R"({"id": 5, "source": "x", "plan": 7})", "5", R"("plan" must be a string)"},
      {R"({"id": 6, "kind": "codegen", "source": "x", "options": {"run": 1}})", "6",
       R"("run" must be a boolean)"},
      {R"({"id": 7, "kind": "codegen", "source": "x", "options": {"cc": false}})", "7",
       R"("cc" must be a string)"},
      {R"({"id": 8, "kind": "optimize", "source": "x", "options": {"objective": []}})",
       "8", R"("objective" must be a string)"},
      {R"({"id": 10, "kind": "mrc", "source": "x", "options": {"sample_rate": 0}})",
       "10", R"("sample_rate" must be a number in (0, 1])"},
      {R"({"id": 11, "kind": "mrc", "source": "x", "options": {"capacities": {}}})",
       "11", R"("capacities" must be an array of integers)"},
      {R"({"id": 12, "kind": "mrc", "source": "x", "options": {"capacities": [1, 2.5]}})",
       "12", R"("capacities" entries must be non-negative integers)"},
      {R"({"id": "unterminated, "source": "x"})", "null",
       "expected ',' or '}' in object at byte 23"},
      {"{\"id\": 13, \"source\": \"tab\there\"}", "null",
       "unescaped control character in string at byte 26"},
      {R"({"id": 14, "source": "x\u12"})", "null", "invalid \\u escape at byte 25"},
      {R"({"id": 15, "source": "x\udc00"})", "null", "unpaired surrogate at byte 29"},
      {R"({"id": 16, "source": "x")", "null", "expected ',' or '}' in object at byte 24"},
      {R"({"id": 1e999, "source": "x"})", "null", "number out of range at byte 12"},
      {R"({"id": -, "source": "x"})", "null", "invalid number at byte 8"},
      {R"({"id": 17, "source": "x\)", "null", "unterminated escape at byte 24"},
      {R"({"id": 18, "source": "x", "options": {"deadline_ms": "soon"}})", "18",
       R"("deadline_ms" must be a non-negative number)"},
  };
}

TEST(WireLeanParse, MatchesTheFullTreeOnEveryMalformedLine) {
  for (const Malformed& m : malformed_lines()) {
    expect_lean_parse_matches_full_tree(m.line);
    ServerRequest req;
    std::string error;
    EXPECT_FALSE(parse_request(m.line, &req, &error)) << m.line;
    EXPECT_EQ(req.id_json, m.id_json) << m.line;
    EXPECT_EQ(error, m.error) << m.line;
  }
  // Well-formed edge cases decode the same way in both modes too.
  for (const char* line : {
           R"({"id": 1e-400, "source": "x"})",
           R"({"id": -0, "source": "x", "options": {"deadline_ms": 2.5e1}})",
           R"({"id": "s", "plan": "1 0; 0 1", "kind": "verify", "source": "x"})",
           R"({"id": "s", "kind": "verify", "plan": "a", "source": "x",
               "options": {"plan": "b", "deadline_ms": 0}})",
           R"({"id": 2, "kind": "mrc", "source": "x", "options":
               {"sample_rate": 0.125, "capacities": [0, 3, 1E2], "plan": "auto"}})",
           R"({"id": 3, "kind": "codegen", "source": "x", "options":
               {"run": true, "cc": "cc", "plan": "auto", "extra": [{}]}})",
           R"({"id": 4, "kind": "optimize", "source": "x",
               "options": {"objective": "miss-ratio:64"}})",
           R"( {"source" : "x" , "id" : null , "schema_version" : 1} )",
       }) {
    expect_lean_parse_matches_full_tree(line);
  }
}

// The string decoder as first written: one push_back per byte.  The bulk
// decoder (runs appended whole) must produce the same bytes.
std::optional<std::string> per_character_decode(std::string_view literal) {
  std::string out;
  size_t pos = 1;  // past the opening quote
  auto hex4 = [&](unsigned* code) {
    if (pos + 4 > literal.size()) return false;
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = literal[pos + i];
      *code <<= 4;
      if (c >= '0' && c <= '9') *code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') *code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') *code |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    pos += 4;
    return true;
  };
  while (pos < literal.size()) {
    const char c = literal[pos++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos >= literal.size()) return std::nullopt;
    const char e = literal[pos++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        if (!hex4(&code)) return std::nullopt;
        if (code >= 0xd800 && code <= 0xdbff) {
          unsigned low = 0;
          if (literal.substr(pos, 2) != "\\u") return std::nullopt;
          pos += 2;
          if (!hex4(&low) || low < 0xdc00 || low > 0xdfff) return std::nullopt;
          code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        } else if (code >= 0xdc00 && code <= 0xdfff) {
          return std::nullopt;
        }
        if (code <= 0x7f) {
          out.push_back(static_cast<char>(code));
        } else if (code <= 0x7ff) {
          out.push_back(static_cast<char>(0xc0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else if (code <= 0xffff) {
          out.push_back(static_cast<char>(0xe0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          out.push_back(static_cast<char>(0xf0 | (code >> 18)));
          out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

TEST(WireLeanParse, BulkDecoderMatchesThePerCharacterOne) {
  const std::string every_escape =
      R"(for i = 1 to 4 # \"quoted\" a\\b c\/d \b\f\n\r\t caf\u00e9 \ud83d\ude00)"
      R"(\n  use A[i];\n)";
  const std::string literals[] = {
      "\"" + every_escape + "\"",
      R"("")",
      R"("\n")",
      R"("\\\\\"\"")",
      R"("run of plain bytes longer than any word, then one escape\t")",
      R"("\u0041\u00E9\u20ac\uD83D\uDE00tail")",
      "\"raw utf-8 \xc3\xa9 and \xf0\x9f\x98\x80 bytes pass through\"",
      R"("ends in an escaped quote \"")",
      R"("x\u0000y")",
  };
  for (const std::string& literal : literals) {
    SCOPED_TRACE(literal);
    std::optional<std::string> expected = per_character_decode(literal);
    ASSERT_TRUE(expected.has_value());
    std::string error;
    auto value = parse_wire_json(literal, &error);
    ASSERT_TRUE(value.has_value()) << error;
    EXPECT_EQ(value->text, *expected);
  }
  // Through parse_request as a request's source.
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"id": 1, "source": ")" + every_escape + "\"}",
                            &req, &error))
      << error;
  EXPECT_EQ(req.analysis.source, *per_character_decode("\"" + every_escape + "\""));
  EXPECT_EQ(req.analysis.source,
            "for i = 1 to 4 # \"quoted\" a\\b c/d \b\f\n\r\t caf\xc3\xa9 "
            "\xf0\x9f\x98\x80\n  use A[i];\n");
}

// ---- bounded queue ---------------------------------------------------------

TEST(BoundedQueue, ShedsWhenFullAndDrainsAfterClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed, never buffered
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: no admission
  EXPECT_EQ(q.pop(), 1);        // queued work survives close
  EXPECT_EQ(q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());  // closed and empty
}

// ---- server helpers --------------------------------------------------------

const char* kFirSource =
    "array y[256];\narray x[264];\narray h[8];\n"
    "for i = 1 to 256\n  for k = 1 to 8\n"
    "    {\n      y[i] = y[i] + x[i + k] + h[k];\n    }\n";

// A 3-deep nest through the full pipeline with optimize search.  Tests
// that need the worker busy while they admit follow-up lines hold it with
// a GatedSink instead of relying on how long this takes to compute.
const char* kMatmultSource =
    "array C[16][16];\narray A[16][16];\narray B[16][16];\n"
    "for i = 1 to 16\n  for j = 1 to 16\n    for k = 1 to 16\n"
    "      {\n        C[i][j] = C[i][j] + A[i][k] + B[k][j];\n      }\n";

std::string request_line(const std::string& id_json, const std::string& source,
                         const std::string& kind = "full",
                         double deadline_ms = 0) {
  Json req = Json::object();
  req.set("id", Json::raw(id_json));
  req.set("kind", kind);
  req.set("source", source);
  if (deadline_ms > 0) {
    req.set("options", Json::object().set("deadline_ms", deadline_ms));
  }
  return req.dump(0);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// The response for a given raw id, or nullopt.
std::optional<WireValue> response_for(const std::vector<std::string>& lines,
                                      const std::string& id_json) {
  for (const std::string& line : lines) {
    std::string error;
    auto doc = parse_wire_json(line, &error);
    if (!doc) continue;
    const WireValue* result = doc->find("result");
    if (!result) continue;
    const WireValue* id = result->find("id");
    if (id && id->raw == id_json) return doc;
  }
  return std::nullopt;
}

int wire_status(const WireValue& doc) {
  const WireValue* status = doc.find("result")->find("status");
  return status ? static_cast<int>(status->number) : -1;
}

// ---- streams transport -----------------------------------------------------

TEST(Server, StreamsResponseIsByteIdenticalToSessionPayload) {
  AnalysisSession direct;
  std::string expected =
      direct.run({kFirSource, "x.loop", AnalysisRequest::Kind::kFull}).payload;

  ServerOptions opts;
  opts.workers = 2;
  AnalysisServer server(opts);
  std::istringstream in(request_line("1", kFirSource) + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  auto doc = response_for(lines, "1");
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(wire_status(*doc), 0);
  const WireValue* payload = doc->find("result")->find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->raw, expected);  // spliced verbatim, never re-encoded
  EXPECT_EQ(server.metrics().counter("serve.completed"), 1);
}

TEST(Server, StreamsSymbolicKindReturnsSymbolicDocument) {
  // A nest squarely inside the symbolic engine's supported regime, so the
  // response must be a success whose payload embeds the closed forms.
  const char* source =
      "array A[11][11];\n"
      "for i = 1 to 10\n  for j = 1 to 10\n"
      "    A[i][j] = A[i][j - 1];\n";
  AnalysisSession direct;
  std::string expected =
      direct.run({source, "<serve>", AnalysisRequest::Kind::kSymbolic})
          .payload;

  AnalysisServer server(ServerOptions{});
  std::istringstream in(request_line("42", source, "symbolic") + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  auto doc = response_for(lines, "42");
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(wire_status(*doc), 0);
  const WireValue* payload = doc->find("result")->find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->raw, expected);
  EXPECT_NE(payload->raw.find("\"symbolic\""), std::string::npos);
}

TEST(Server, StreamsMrcKindRoundTripsWithOptions) {
  // An "mrc" request with every per-kind knob set must splice exactly the
  // payload a direct session computes for the same typed request, and a
  // warm (cached) re-run must be byte-identical to the cold one.
  AnalysisRequest::Mrc mopt;
  mopt.plan = "0 1; 1 0";
  mopt.sample_rate = 0.5;
  mopt.capacities = {1, 8, 64};
  AnalysisSession direct;
  std::string expected = direct.run({kFirSource, "<serve>", mopt}).payload;

  Json req = Json::object();
  req.set("id", Json::raw("7"));
  req.set("kind", "mrc");
  req.set("source", kFirSource);
  req.set("options", Json::object()
                         .set("plan", "0 1; 1 0")
                         .set("sample_rate", 0.5)
                         .set("capacities", Json::array().push(1).push(8).push(64)));
  const std::string line = req.dump(0) + "\n";

  AnalysisServer server(ServerOptions{});
  std::istringstream in(line + line);  // cold, then warm from the cache
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& response : lines) {
    std::string error;
    auto doc = parse_wire_json(response, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(wire_status(*doc), 0);
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->raw, expected);
    EXPECT_NE(payload->raw.find("\"mrc\""), std::string::npos);
    EXPECT_NE(payload->raw.find("\"error_bound\""), std::string::npos);
  }
}

TEST(Server, StreamsAnswersEveryRequestOnDrain) {
  ServerOptions opts;
  opts.workers = 4;
  opts.queue_depth = 64;
  AnalysisServer server(opts);
  std::string feed;
  for (int i = 0; i < 8; ++i) {
    feed += request_line(std::to_string(i),
                         i % 2 ? kFirSource : kMatmultSource, "analyze");
    feed += '\n';
  }
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);  // returns only after the drain

  auto lines = lines_of(out.str());
  EXPECT_EQ(lines.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto doc = response_for(lines, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << "missing response for id " << i;
    EXPECT_EQ(wire_status(*doc), 0);
  }
  // 8 requests over 2 distinct sources.  Every request is answered from
  // exactly one of three paths: a cache hit, a cache miss (computed), or
  // a coalesced flight (answered by another request's computation without
  // ever probing the cache).  The split between them depends on worker
  // timing, but the first compute of each source is always a miss.
  EXPECT_EQ(server.cache().hits() + server.cache().misses() +
                server.metrics().counter("serve.coalesced"),
            8);
  EXPECT_GE(server.cache().misses(), 2);
  EXPECT_EQ(server.metrics().latency_count("serve.latency_ms"), 8);
}

TEST(Server, BadRequestLineGetsBadRequestStatus) {
  AnalysisServer server(ServerOptions{});
  std::istringstream in("this is not json\n" +
                        request_line("2", kFirSource, "lint") + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  bool saw_bad = false;
  for (const auto& line : lines) {
    if (line.find("\"bad_request\"") != std::string::npos) saw_bad = true;
  }
  EXPECT_TRUE(saw_bad) << out.str();
  auto ok = response_for(lines, "2");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(wire_status(*ok), 0);
  EXPECT_EQ(server.metrics().counter("serve.bad_request"), 1);
}

// A sink that collects response lines; lets tests admit lines one at a
// time (serve_streams feeds them back-to-back, which races the worker).
class CollectingSink : public ResponseSink {
 public:
  void write_line(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(line);
  }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

// A CollectingSink that can hold the worker answering one request: the
// response line for the id passed to hold() blocks in write_line until
// release(), so lines admitted in between find that worker busy however
// fast the held request computes.  The wait gives up after 10 s, so a test
// that fails before release() still drains.
class GatedSink : public CollectingSink {
 public:
  void hold(const std::string& id_json) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    held_id_ = id_json;
    open_ = false;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  void write_line(const std::string& line) override {
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      if (!open_ && response_for({line}, held_id_)) {
        gate_cv_.wait_for(lock, std::chrono::seconds(10), [this] { return open_; });
      }
    }
    CollectingSink::write_line(line);
  }

 private:
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::string held_id_;
  bool open_ = true;
};

// Admits a `full` request for `source` with id `id_json` and waits until
// the single worker has taken it off the queue; `sink` holds that worker
// until release().
void admit_held(AnalysisServer& server, const std::shared_ptr<GatedSink>& sink,
                const std::string& id_json, const std::string& source) {
  sink->hold(id_json);
  server.admit_line(request_line(id_json, source), sink);
  for (int i = 0; i < 2000 && server.queued() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), 0u) << "worker never picked up the request";
}

TEST(Server, FullQueueShedsWithOverloaded) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  AnalysisServer server(opts);
  auto sink = std::make_shared<GatedSink>();

  // Stage the scenario deterministically: the single worker must hold the
  // heavy request while the next two lines arrive.
  ASSERT_NO_FATAL_FAILURE(admit_held(server, sink, "\"heavy\"", kMatmultSource));
  // Distinct kinds of the same source: different cache keys, so the third
  // line cannot coalesce onto the second -- it must hit the full queue.
  server.admit_line(request_line("\"queued\"", kFirSource), sink);  // fills depth 1
  server.admit_line(request_line("\"shed\"", kFirSource, "analyze"), sink);  // queue full
  sink->release();
  server.drain();

  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 3u);
  auto shed = response_for(lines, "\"shed\"");
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(wire_status(*shed), static_cast<int>(ServeStatus::kOverloaded));
  auto queued = response_for(lines, "\"queued\"");
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(wire_status(*queued), 0);  // admitted work still completes
  auto heavy = response_for(lines, "\"heavy\"");
  ASSERT_TRUE(heavy.has_value());
  EXPECT_EQ(wire_status(*heavy), 0);
  EXPECT_EQ(server.metrics().counter("serve.overloaded"), 1);
}

// Waits (bounded) until `sink` holds `n` response lines.
std::vector<std::string> await_lines(CollectingSink& sink, size_t n) {
  for (int i = 0; i < 5000 && sink.lines().size() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return sink.lines();
}

// Admits `lines` while the single worker is held on a `full` request for
// `heavy_source` (id `heavy_id`) and the one queue slot holds `filler`:
// any of them answered other than `overloaded` did not go through the
// queue.  The worker stays held until the caller calls sink->release().
void admit_behind_full_queue(AnalysisServer& server,
                             const std::shared_ptr<GatedSink>& sink,
                             const std::string& heavy_id,
                             const std::string& heavy_source,
                             const std::string& filler,
                             const std::vector<std::string>& lines) {
  ASSERT_NO_FATAL_FAILURE(admit_held(server, sink, heavy_id, heavy_source));
  server.admit_line(filler, sink);
  ASSERT_EQ(server.queued(), 1u);
  for (const std::string& line : lines) server.admit_line(line, sink);
}

TEST(Server, ResidentHitIsNeverShedOrTimedOut) {
  AnalysisSession direct;
  const std::string expected =
      direct.run({kFirSource, "x.loop", AnalysisRequest::Kind::kAnalyze})
          .payload;
  std::string heavy2 = kMatmultSource;  // same shape, different cache key
  for (size_t at = heavy2.find("to 16"); at != std::string::npos;
       at = heavy2.find("to 16", at)) {
    heavy2.replace(at, 5, "to 15");
  }

  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  AnalysisServer server(opts);
  auto sink = std::make_shared<GatedSink>();

  // Cold: the line is not resident, so behind a full queue it is shed.
  ASSERT_NO_FATAL_FAILURE(admit_behind_full_queue(
      server, sink, "\"heavy\"", kMatmultSource,
      request_line("\"filler\"", kFirSource, "lint"),
      {request_line("\"cold\"", kFirSource, "analyze")}));
  sink->release();
  auto lines = await_lines(*sink, 3);
  ASSERT_EQ(lines.size(), 3u);
  auto cold = response_for(lines, "\"cold\"");
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(wire_status(*cold), static_cast<int>(ServeStatus::kOverloaded));

  // Warm it through an idle pool.
  server.admit_line(request_line("\"warm\"", kFirSource, "analyze"), sink);
  lines = await_lines(*sink, 4);
  ASSERT_EQ(lines.size(), 4u);

  // Warm: the same line behind a full queue is answered at admission --
  // before admit_line returns, ahead of the earlier heavy request -- and
  // a 1 ms deadline cannot expire on it.
  ASSERT_NO_FATAL_FAILURE(admit_behind_full_queue(
      server, sink, "\"heavy2\"", heavy2,
      request_line("\"filler2\"", kMatmultSource, "lint"),
      {request_line("\"hit\"", kFirSource, "analyze"),
       request_line("\"hit_deadline\"", kFirSource, "analyze", 1.0)}));
  lines = sink->lines();
  for (const char* id : {"\"hit\"", "\"hit_deadline\""}) {
    auto hit = response_for(lines, id);
    ASSERT_TRUE(hit.has_value()) << id << " was not answered at admission";
    EXPECT_EQ(wire_status(*hit), 0) << id;
    const WireValue* payload = hit->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->raw, expected) << id;
  }
  sink->release();
  server.drain();

  EXPECT_EQ(sink->lines().size(), 8u);
  EXPECT_EQ(server.metrics().counter("serve.overloaded"), 1);
  EXPECT_EQ(server.metrics().counter("serve.timeout"), 0);
  EXPECT_EQ(server.cache().hits(), 2);
}

// ---- single-flight coalescing ----------------------------------------------

TEST(Server, CoalescesIdenticalConcurrentColdRequests) {
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  auto sink = std::make_shared<GatedSink>();

  // Hold the single worker on an unrelated request so the five identical
  // lines below are all admitted while their leader is still queued --
  // the flight stays open for every one of them.
  ASSERT_NO_FATAL_FAILURE(admit_held(server, sink, "\"busy\"", kMatmultSource));
  constexpr int kIdentical = 5;
  for (int i = 0; i < kIdentical; ++i) {
    server.admit_line(request_line(std::to_string(i), kFirSource), sink);
  }
  sink->release();
  server.drain();

  // Exactly two computations happened in this process: the busy request
  // and ONE shared run for the five identical cold requests.
  EXPECT_EQ(server.metrics().counter("runs.total"), 2);
  EXPECT_EQ(server.metrics().counter("runs.computed"), 2);
  EXPECT_EQ(server.metrics().counter("serve.coalesced"), kIdentical - 1);
  EXPECT_EQ(server.metrics().counter("serve.completed"), kIdentical + 1);

  // Every waiter got the leader's bytes verbatim.
  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kIdentical) + 1);
  std::string shared_payload;
  for (int i = 0; i < kIdentical; ++i) {
    auto doc = response_for(lines, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << "missing response for id " << i;
    EXPECT_EQ(wire_status(*doc), 0);
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    if (shared_payload.empty()) shared_payload = payload->raw;
    EXPECT_EQ(payload->raw, shared_payload);
  }
}

TEST(Server, DifferentKindsOfOneSourceNeverCoalesce) {
  // The flight identity is the cache key, which folds in the request
  // kind: lint and analyze of one source must both compute.
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  std::string feed = request_line("\"l\"", kFirSource, "lint") + "\n" +
                     request_line("\"a\"", kFirSource, "analyze") + "\n";
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);

  EXPECT_EQ(server.metrics().counter("runs.total"), 2);
  EXPECT_EQ(server.metrics().counter("serve.coalesced"), 0);
  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const char* id : {"\"l\"", "\"a\""}) {
    auto doc = response_for(lines, id);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(wire_status(*doc), 0);
  }
}

TEST(Server, CoalescingDisabledRunsEveryRequest) {
  ServerOptions opts;
  opts.workers = 1;
  opts.coalesce = false;
  AnalysisServer server(opts);
  std::string line = request_line("\"x\"", kFirSource, "analyze") + "\n";
  std::istringstream in(line + line);
  std::ostringstream out;
  server.serve_streams(in, out);

  // Both lines went through the queue; the second was a warm cache hit,
  // not a coalesced waiter.
  EXPECT_EQ(server.metrics().counter("runs.total"), 2);
  EXPECT_EQ(server.metrics().counter("serve.coalesced"), 0);
  EXPECT_EQ(server.cache().hits(), 1);
  EXPECT_EQ(server.cache().misses(), 1);
}

TEST(Server, ExpiredDeadlineReportsTimeout) {
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  // While the worker grinds the heavy request, the second's microscopic
  // deadline expires in the queue; it must be abandoned at dispatch.
  std::string feed =
      request_line("\"heavy\"", kMatmultSource) + "\n" +
      request_line("\"late\"", kFirSource, "full", 0.0001) + "\n";
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  auto late = response_for(lines, "\"late\"");
  ASSERT_TRUE(late.has_value()) << out.str();
  EXPECT_EQ(wire_status(*late), static_cast<int>(ServeStatus::kTimeout));
  EXPECT_EQ(server.metrics().counter("serve.timeout"), 1);
  EXPECT_EQ(server.metrics().counter("serve.abandoned"), 1);
  auto heavy = response_for(lines, "\"heavy\"");
  ASSERT_TRUE(heavy.has_value());
  EXPECT_EQ(wire_status(*heavy), 0);
}

TEST(Server, DeadlinePastTheClockRangeMeansNone) {
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  // 1e13 ms and 1e300 ms lie past what steady_clock can hold from
  // admission: no deadline, so both are computed.  (Casting such a wait
  // to clock ticks is undefined; on x86-64 it yields a deadline in the
  // past.)
  std::string feed = request_line("\"far\"", kFirSource, "analyze", 1e13) + "\n" +
                     request_line("\"farther\"", kFirSource, "analyze", 1e300) +
                     "\n";
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u) << out.str();
  for (const char* id : {"\"far\"", "\"farther\""}) {
    auto r = response_for(lines, id);
    ASSERT_TRUE(r.has_value()) << out.str();
    EXPECT_EQ(wire_status(*r), 0) << id << ": " << out.str();
  }
  EXPECT_EQ(server.metrics().counter("serve.timeout"), 0);
}

// ---- socket transport ------------------------------------------------------

std::string test_socket_path(const char* name) {
  // sun_path is ~108 bytes; TempDir can be long, so fall back to /tmp.
  std::string path = ::testing::TempDir() + name;
  if (path.size() >= 100) path = std::string("/tmp/") + name;
  ::unlink(path.c_str());
  return path;
}

void send_all(int fd, const std::string& line) {
  std::string framed = line + '\n';
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

// One-shot exchange over a connected fd (closed here; -1 yields ""):
// send `line`, half-close, read one response line.
std::string exchange_one(int fd, const std::string& line) {
  if (fd < 0) return "";
  send_all(fd, line);
  ::shutdown(fd, SHUT_WR);  // one request per connection
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
    size_t nl = response.find('\n');
    if (nl != std::string::npos) {
      response.resize(nl);
      break;
    }
  }
  ::close(fd);
  return response;
}

// One-shot Unix-socket client: connect, send `line`, read one response.
std::string roundtrip(const std::string& path, const std::string& line) {
  return exchange_one(unix_connect(path), line);
}

TEST(Server, SocketConcurrentClientsShareOneCacheAndDrainCleanly) {
  std::string path = test_socket_path("lmre_server_test.sock");
  ServerOptions opts;
  opts.workers = 4;
  AnalysisServer server(opts);
  std::thread serving([&] {
    EXPECT_EQ(server.serve_socket(path), ExitCode::kSuccess);
  });

  // Warm the cache with one sequential request (retrying around server
  // startup) so the concurrent phase has a deterministic hit pattern.
  std::string warm;
  for (int attempt = 0; attempt < 200 && warm.empty(); ++attempt) {
    warm = roundtrip(path, request_line("\"warm\"", kFirSource));
    if (warm.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(warm.empty()) << "server never came up on " << path;

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] =
          roundtrip(path, request_line(std::to_string(i), kFirSource));
    });
  }
  for (auto& t : clients) t.join();
  server.request_stop();
  serving.join();

  // Every client got the byte-identical payload; one compute, rest hits.
  std::string warm_payload;
  {
    auto doc = response_for({warm}, "\"warm\"");
    ASSERT_TRUE(doc.has_value()) << warm;
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    warm_payload = payload->raw;
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(responses[i].empty()) << "client " << i << " got no response";
    auto doc = response_for({responses[i]}, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << responses[i];
    EXPECT_EQ(wire_status(*doc), 0);
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->raw, warm_payload);
  }
  // One cold compute for the warm-up.  Each concurrent client was either
  // a warm cache hit or rode an open flight (coalesced); both paths
  // splice the same cached bytes.
  EXPECT_EQ(server.cache().misses(), 1);
  EXPECT_EQ(server.cache().hits() + server.metrics().counter("serve.coalesced"),
            kClients);
  EXPECT_EQ(server.metrics().counter("serve.completed"), kClients + 1);
  ::unlink(path.c_str());
}

TEST(Server, SocketStopWithoutClientsExitsCleanly) {
  std::string path = test_socket_path("lmre_server_idle.sock");
  AnalysisServer server(ServerOptions{});
  std::thread serving([&] {
    EXPECT_EQ(server.serve_socket(path), ExitCode::kSuccess);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  serving.join();  // poll loop notices within ~100ms
  EXPECT_TRUE(server.stopped());
}

TEST(Server, SocketClientKilledMidFlightDoesNotLoseOthersOrLeakReaders) {
  std::string path = test_socket_path("lmre_server_kill.sock");
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  std::thread serving([&] {
    EXPECT_EQ(server.serve_socket(path), ExitCode::kSuccess);
  });

  // Wait for the listener (retry a throwaway round trip).
  std::string up;
  for (int attempt = 0; attempt < 200 && up.empty(); ++attempt) {
    up = roundtrip(path, request_line("\"up\"", kFirSource, "lint"));
    if (up.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(up.empty()) << "server never came up on " << path;

  // Client A sends a heavy request and dies without reading the answer.
  int a = unix_connect(path);
  ASSERT_GE(a, 0);
  send_all(a, request_line("\"doomed\"", kMatmultSource));
  ::close(a);

  // The accept loop must reap A's reader thread while still serving --
  // not at shutdown.  conn_closed counts joins inside the loop.
  for (int i = 0; i < 500 && server.metrics().counter("serve.conn_closed") < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.metrics().counter("serve.conn_closed"), 2)
      << "finished readers were not reaped during serving";

  // Client B's request, admitted while A's is in flight or computed
  // after it, must come back complete.
  std::string b = roundtrip(path, request_line("\"b\"", kFirSource, "analyze"));
  ASSERT_FALSE(b.empty()) << "surviving client lost its response";
  auto doc = response_for({b}, "\"b\"");
  ASSERT_TRUE(doc.has_value()) << b;
  EXPECT_EQ(wire_status(*doc), 0);

  server.request_stop();
  serving.join();
  // Every accepted connection's reader was joined exactly once, and every
  // admitted request completed (A's response was dropped at its dead
  // socket, after counting).
  EXPECT_EQ(server.metrics().counter("serve.conn_closed"),
            server.metrics().counter("serve.conn_opened"));
  EXPECT_EQ(server.metrics().counter("serve.completed"), 3);
  ::unlink(path.c_str());
}

// ---- tcp transport ---------------------------------------------------------

TEST(Tcp, ParseHostPort) {
  std::string error;
  auto hp = parse_host_port("127.0.0.1:8080", &error);
  ASSERT_TRUE(hp.has_value()) << error;
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 8080);

  hp = parse_host_port("localhost:0", &error);
  ASSERT_TRUE(hp.has_value()) << error;
  EXPECT_EQ(hp->port, 0);

  hp = parse_host_port(":9", &error);  // empty host = all interfaces
  ASSERT_TRUE(hp.has_value()) << error;
  EXPECT_EQ(hp->host, "");

  EXPECT_FALSE(parse_host_port("no-port", &error).has_value());
  EXPECT_FALSE(parse_host_port("h:99999", &error).has_value());
  EXPECT_FALSE(parse_host_port("h:-1", &error).has_value());
  EXPECT_FALSE(parse_host_port("h:12x", &error).has_value());
  EXPECT_FALSE(parse_host_port("some.dns.name:1", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// One-shot TCP client: connect, send `line`, read one response line.
std::string tcp_roundtrip(int port, const std::string& line) {
  return exchange_one(tcp_connect("127.0.0.1", port), line);
}

// Binds port 0 and waits for the kernel-assigned port to surface.
int wait_for_tcp_port(AnalysisServer& server) {
  for (int i = 0; i < 500 && server.tcp_port() < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return server.tcp_port();
}

TEST(Server, TcpResponseIsByteIdenticalToSessionPayload) {
  AnalysisSession direct;
  std::string expected =
      direct.run({kFirSource, "x.loop", AnalysisRequest::Kind::kFull}).payload;

  ServerOptions opts;
  opts.workers = 2;
  AnalysisServer server(opts);
  std::thread serving([&] {
    EXPECT_EQ(server.serve_tcp("127.0.0.1", 0), ExitCode::kSuccess);
  });
  int port = wait_for_tcp_port(server);
  ASSERT_GT(port, 0) << "serve_tcp never bound";

  std::string response = tcp_roundtrip(port, request_line("1", kFirSource));
  ASSERT_FALSE(response.empty());
  auto doc = response_for({response}, "1");
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(wire_status(*doc), 0);
  const WireValue* payload = doc->find("result")->find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->raw, expected);  // the contract holds over TCP too

  server.request_stop();
  serving.join();
  EXPECT_EQ(server.metrics().counter("serve.completed"), 1);
  EXPECT_EQ(server.metrics().counter("serve.conn_opened"), 1);
}

TEST(Server, TcpConcurrentClientsAllAnswered) {
  ServerOptions opts;
  opts.workers = 4;
  AnalysisServer server(opts);
  std::thread serving([&] {
    EXPECT_EQ(server.serve_tcp("127.0.0.1", 0), ExitCode::kSuccess);
  });
  int port = wait_for_tcp_port(server);
  ASSERT_GT(port, 0);

  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = tcp_roundtrip(
          port, request_line(std::to_string(i),
                             i % 2 ? kFirSource : kMatmultSource, "analyze"));
    });
  }
  for (auto& t : clients) t.join();
  server.request_stop();
  serving.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(responses[i].empty()) << "client " << i << " got no response";
    auto doc = response_for({responses[i]}, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << responses[i];
    EXPECT_EQ(wire_status(*doc), 0);
  }
  EXPECT_EQ(server.metrics().counter("serve.completed"), kClients);
}

TEST(Server, TcpClientVanishingMidFlightDoesNotLoseOthers) {
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  std::thread serving([&] {
    EXPECT_EQ(server.serve_tcp("127.0.0.1", 0), ExitCode::kSuccess);
  });
  int port = wait_for_tcp_port(server);
  ASSERT_GT(port, 0);

  // Client A fires a heavy request and slams the connection shut without
  // reading; its response has nowhere to go.
  int a = tcp_connect("127.0.0.1", port);
  ASSERT_GE(a, 0);
  send_all(a, request_line("\"doomed\"", kMatmultSource));
  ::close(a);

  // Client B must be completely unaffected.
  std::string b = tcp_roundtrip(port, request_line("\"b\"", kFirSource));
  ASSERT_FALSE(b.empty()) << "surviving client lost its response";
  auto doc = response_for({b}, "\"b\"");
  ASSERT_TRUE(doc.has_value()) << b;
  EXPECT_EQ(wire_status(*doc), 0);

  server.request_stop();
  serving.join();
  // Both requests were admitted and completed; A's bytes were dropped at
  // its dead socket without disturbing the loop or a worker.
  EXPECT_EQ(server.metrics().counter("serve.completed"), 2);
  EXPECT_EQ(server.metrics().counter("serve.conn_opened"), 2);
  EXPECT_EQ(server.metrics().counter("serve.conn_closed"), 2);
}

// ---- both socket transports ------------------------------------------------
//
// serve_socket and serve_tcp run one event loop; these tests hold each
// transport to the same guarantees.

enum class Transport { kUnix, kTcp };

const char* transport_name(Transport t) {
  return t == Transport::kUnix ? "unix" : "tcp";
}

void PrintTo(Transport t, std::ostream* os) { *os << transport_name(t); }

void set_timeouts(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

// Reads until EOF, error, or the receive timeout; returns every byte.
std::string read_all(int fd) {
  std::string text;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    text.append(chunk, static_cast<size_t>(n));
  }
  return text;
}

// fir with `n` outputs: a distinct cold request per n.
std::string fir_source(int n) {
  return "array y[" + std::to_string(n) + "];\narray x[" +
         std::to_string(n + 8) + "];\narray h[8];\nfor i = 1 to " +
         std::to_string(n) +
         "\n  for k = 1 to 8\n    {\n      y[i] = y[i] + x[i + k] + h[k];\n"
         "    }\n";
}

// One AnalysisServer serving the parameter's transport on a background
// thread, and blocking client connections to it.
class SocketTransport : public ::testing::TestWithParam<Transport> {
 protected:
  // Starts serving and waits until a client can connect.  `tag` names the
  // Unix socket file, so concurrently running tests never share one.
  void start(ServerOptions opts, const std::string& tag) {
    server_ = std::make_unique<AnalysisServer>(std::move(opts));
    if (GetParam() == Transport::kUnix) {
      path_ = test_socket_path(("lmre_" + tag + ".sock").c_str());
      serving_ = std::thread([this] {
        EXPECT_EQ(server_->serve_socket(path_), ExitCode::kSuccess);
      });
    } else {
      serving_ = std::thread([this] {
        EXPECT_EQ(server_->serve_tcp("127.0.0.1", 0), ExitCode::kSuccess);
      });
    }
    int fd = -1;
    for (int i = 0; i < 500 && (fd = connect()) < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GE(fd, 0) << "server never came up";
    ::close(fd);
  }

  // A blocking client connection, or -1.
  int connect() {
    if (GetParam() == Transport::kUnix) return unix_connect(path_);
    int port = server_->tcp_port();
    return port < 0 ? -1 : tcp_connect("127.0.0.1", port);
  }

  // request_stop() and join the serving thread; returns the seconds taken.
  double stop() {
    auto t0 = std::chrono::steady_clock::now();
    server_->request_stop();
    serving_.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  void TearDown() override {
    if (serving_.joinable()) stop();
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  AnalysisServer& server() { return *server_; }

 private:
  std::unique_ptr<AnalysisServer> server_;
  std::string path_;
  std::thread serving_;  // uses the members above; joined in TearDown
};

TEST_P(SocketTransport, ClientThatNeverReadsDoesNotPinAWorker) {
  ServerOptions opts;
  opts.workers = 1;
  ASSERT_NO_FATAL_FAILURE(start(opts, "never_reads"));

  // Client A pipelines distinct cold codegen requests (~12 KB of C each)
  // and never reads: far more response bytes than any socket buffer holds.
  constexpr int kRequests = 400;
  int a = connect();
  ASSERT_GE(a, 0);
  set_timeouts(a, 10);
  for (int i = 0; i < kRequests; ++i) {
    send_all(a, request_line(std::to_string(i), fir_source(64 + i), "codegen"));
  }
  // Every A request is computed or shed; its answers wait in A's buffer,
  // not in a worker blocked on A's socket.
  Metrics& m = server().metrics();
  for (int i = 0; i < 1000 && m.counter("serve.completed") +
                                      m.counter("serve.overloaded") <
                                  kRequests;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(m.counter("serve.completed") + m.counter("serve.overloaded"),
            kRequests);

  // Client B's cold lint request needs the only worker.
  int b = connect();
  ASSERT_GE(b, 0);
  set_timeouts(b, 10);
  std::string response =
      exchange_one(b, request_line("\"b\"", kFirSource, "lint"));
  ASSERT_FALSE(response.empty()) << "a client that never reads pinned the worker";
  auto doc = response_for({response}, "\"b\"");
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(wire_status(*doc), 0);

  // Shutdown cannot be held hostage by A's unread bytes either.
  EXPECT_LT(stop(), 10.0);
  ::close(a);
}

TEST_P(SocketTransport, LineOverTheCapDropsOnlyThatConnection) {
  ASSERT_NO_FATAL_FAILURE(start(ServerOptions{}, "line_cap"));

  // 17 MiB with no newline: past the 16 MiB line cap.
  int big = connect();
  ASSERT_GE(big, 0);
  set_timeouts(big, 10);
  const std::string junk(17u << 20, 'x');
  size_t sent = 0;
  while (sent < junk.size()) {
    ssize_t n = ::send(big, junk.data() + sent, junk.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;  // EPIPE / ECONNRESET: already dropped
    sent += static_cast<size_t>(n);
  }
  char byte = 0;
  ssize_t n = ::recv(big, &byte, 1, 0);
  const int recv_errno = errno;
  // EOF or a reset; a receive timeout means the connection is still open.
  EXPECT_TRUE(n == 0 || (n < 0 && recv_errno != EAGAIN &&
                         recv_errno != EWOULDBLOCK))
      << "connection still open after a " << sent << "-byte line";
  ::close(big);

  int c = connect();
  ASSERT_GE(c, 0);
  set_timeouts(c, 10);
  std::string response =
      exchange_one(c, request_line("\"after\"", kFirSource, "lint"));
  auto doc = response_for({response}, "\"after\"");
  ASSERT_TRUE(doc.has_value()) << "other clients must still be served";
  EXPECT_EQ(wire_status(*doc), 0);
}

TEST_P(SocketTransport, FramesLinesSplitAcrossWritesAndSharingOne) {
  ASSERT_NO_FATAL_FAILURE(start(ServerOptions{}, "framing"));
  struct Line {
    const char* id;
    const char* source;
    const char* kind;
    AnalysisRequest::Kind session_kind;
  };
  const Line lines[] = {
      {"1", kFirSource, "full", AnalysisRequest::Kind::kFull},
      {"2", kFirSource, "lint", AnalysisRequest::Kind::kLint},
      {"3", kMatmultSource, "analyze", AnalysisRequest::Kind::kAnalyze},
      {"4", kMatmultSource, "lint", AnalysisRequest::Kind::kLint},
  };
  std::string text[4];
  for (int i = 0; i < 4; ++i) {
    text[i] = request_line(lines[i].id, lines[i].source, lines[i].kind) + "\n";
  }

  int fd = connect();
  ASSERT_GE(fd, 0);
  set_timeouts(fd, 10);
  auto send_raw = [fd](const std::string& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  };
  // Line 1 a few bytes at a time, each piece its own read on the server.
  for (size_t i = 0; i < text[0].size(); i += 3) {
    send_raw(text[0].substr(i, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Lines 2 and 3 in one write, with the head of line 4 behind them.
  const size_t half = text[3].size() / 2;
  send_raw(text[1] + text[2] + text[3].substr(0, half));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  send_raw(text[3].substr(half));
  ::shutdown(fd, SHUT_WR);
  std::vector<std::string> responses = lines_of(read_all(fd));
  ::close(fd);

  ASSERT_EQ(responses.size(), 4u);
  AnalysisSession direct;
  for (const Line& line : lines) {
    auto doc = response_for(responses, line.id);
    ASSERT_TRUE(doc.has_value()) << "no response for id " << line.id;
    EXPECT_EQ(wire_status(*doc), 0) << line.id;
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr) << line.id;
    EXPECT_EQ(payload->raw,
              direct.run({line.source, "x.loop", line.session_kind}).payload)
        << line.id;
  }
}

TEST_P(SocketTransport, PipelinedShortLinesPastTheCapAreAllAnswered) {
  ASSERT_NO_FATAL_FAILURE(start(ServerOptions{}, "pipelined"));
  // ~4 KiB lines, well under the 16 MiB line cap, over 17 MiB in all.
  // Every one is the same lint request (the comment padding canonicalizes
  // away), so after the first computation they are all admission hits.
  const std::string padding = "# " + std::string(4000, 'p') + "\n";
  constexpr int kLines = 4400;
  int fd = connect();
  ASSERT_GE(fd, 0);
  set_timeouts(fd, 60);

  // One thread writes without pause, in 1 MiB batches, while this one
  // reads the replies.
  std::thread writer([&] {
    std::string batch;
    for (int i = 0; i < kLines; ++i) {
      batch += request_line(std::to_string(i), padding + kFirSource, "lint");
      batch += '\n';
      if (batch.size() >= (1u << 20) || i + 1 == kLines) {
        size_t sent = 0;
        while (sent < batch.size()) {
          ssize_t n = ::send(fd, batch.data() + sent, batch.size() - sent,
                             MSG_NOSIGNAL);
          if (n <= 0) return;  // dropped: the reader sees it as missing lines
          sent += static_cast<size_t>(n);
        }
        batch.clear();
      }
    }
    ::shutdown(fd, SHUT_WR);
  });
  std::string text = read_all(fd);
  writer.join();
  ::close(fd);

  std::vector<bool> answered(kLines, false);
  int responses = 0;
  for (const std::string& line : lines_of(text)) {
    std::string error;
    auto doc = parse_wire_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const WireValue* result = doc->find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("status")->number, 0) << line.substr(0, 200);
    const int id = static_cast<int>(result->find("id")->number);
    ASSERT_TRUE(id >= 0 && id < kLines);
    EXPECT_FALSE(answered[static_cast<size_t>(id)]) << "id " << id << " twice";
    answered[static_cast<size_t>(id)] = true;
    ++responses;
  }
  EXPECT_EQ(responses, kLines) << "a pipelining client was dropped";
}

INSTANTIATE_TEST_SUITE_P(
    Server, SocketTransport,
    ::testing::Values(Transport::kUnix, Transport::kTcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(transport_name(info.param));
    });

// ---- admission-time cache hits ---------------------------------------------

// Every admitted request is exactly one cache lookup (a hit at admission
// or in a worker, or a worker's miss) or one coalesced waiter, and every
// hit is one cached run.
void expect_one_lookup_per_request(AnalysisServer& server) {
  Metrics& m = server.metrics();
  EXPECT_EQ(server.cache().hits() + server.cache().misses() +
                m.counter("serve.coalesced"),
            m.counter("serve.requests") - m.counter("serve.bad_request"));
  EXPECT_EQ(m.counter("runs.cached"), server.cache().hits());
}

// Three kinds of one source, four rounds each, plus one bad line: the
// first of each kind misses, repeats hit or coalesce.
std::vector<std::string> mixed_feed() {
  std::vector<std::string> feed;
  const char* kinds[] = {"lint", "analyze", "full"};
  for (int i = 0; i < 12; ++i) {
    feed.push_back(request_line(std::to_string(i), kFirSource, kinds[i % 3]));
  }
  feed.push_back("not json");
  return feed;
}

// Pipelines `lines` over one TCP connection, half-closes, and returns
// every response line received before the server closes.
std::vector<std::string> tcp_exchange(int port,
                                      const std::vector<std::string>& lines) {
  int fd = tcp_connect("127.0.0.1", port);
  if (fd < 0) return {};
  for (const std::string& line : lines) send_all(fd, line);
  ::shutdown(fd, SHUT_WR);
  std::string text = read_all(fd);
  ::close(fd);
  return lines_of(text);
}

TEST(Server, StreamsCountOneLookupPerAdmittedRequest) {
  ServerOptions opts;
  opts.workers = 2;
  AnalysisServer server(opts);
  std::string feed;
  for (const std::string& line : mixed_feed()) feed += line + "\n";
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);

  EXPECT_EQ(lines_of(out.str()).size(), 13u);
  EXPECT_EQ(server.metrics().counter("serve.bad_request"), 1);
  EXPECT_EQ(server.cache().misses(), 3);
  expect_one_lookup_per_request(server);
}

TEST(Server, TcpCountsOneLookupPerAdmittedRequest) {
  ServerOptions opts;
  opts.workers = 2;
  AnalysisServer server(opts);
  std::thread serving([&] {
    EXPECT_EQ(server.serve_tcp("127.0.0.1", 0), ExitCode::kSuccess);
  });
  int port = wait_for_tcp_port(server);
  ASSERT_GT(port, 0);

  // Warm the lint key, so its four repeats below are admission hits.
  ASSERT_FALSE(tcp_roundtrip(port, request_line("\"w\"", kFirSource, "lint")).empty());
  std::vector<std::string> feed = mixed_feed();
  std::vector<std::string> responses = tcp_exchange(port, feed);
  server.request_stop();
  serving.join();

  EXPECT_EQ(responses.size(), feed.size());
  EXPECT_GE(server.cache().hits(), 4);
  EXPECT_EQ(server.cache().misses(), 3);
  expect_one_lookup_per_request(server);
}

TEST(Server, ExpiredResidentEntryIsRecomputedByAWorker) {
  ServerOptions opts;
  opts.workers = 1;
  opts.session.cache_ttl_seconds = 0.05;
  AnalysisServer server(opts);
  auto sink = std::make_shared<CollectingSink>();
  server.admit_line(request_line("1", kFirSource, "analyze"), sink);
  ASSERT_EQ(await_lines(*sink, 1).size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  const Int expired0 = server.cache().expired();
  const Int misses0 = server.cache().misses();
  const Int computed0 = server.metrics().counter("runs.computed");
  server.admit_line(request_line("2", kFirSource, "analyze"), sink);
  auto lines = await_lines(*sink, 2);
  server.drain();

  ASSERT_EQ(lines.size(), 2u);
  // The admission probe drops the stale entry (expired +1, no miss); the
  // worker's lookup is the one miss, and it recomputes.
  EXPECT_EQ(server.cache().expired() - expired0, 1);
  EXPECT_EQ(server.cache().misses() - misses0, 1);
  EXPECT_EQ(server.metrics().counter("runs.computed") - computed0, 1);
  EXPECT_EQ(server.cache().hits(), 0);
  auto first = response_for(lines, "1");
  auto second = response_for(lines, "2");
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->find("result")->find("result")->raw,
            second->find("result")->find("result")->raw);
}

TEST(Server, WarmDiskCacheIsReadByAWorkerThenHitAtAdmission) {
  const std::string dir = ::testing::TempDir() + "lmre_serve_disk_cache";
  std::filesystem::remove_all(dir);
  ServerOptions opts;
  opts.session.cache_dir = dir;
  const std::string line = request_line("1", kFirSource, "analyze");
  std::string cold;
  {
    AnalysisServer writer(opts);
    std::istringstream in(line + "\n");
    std::ostringstream out;
    writer.serve_streams(in, out);
    cold = out.str();
  }

  AnalysisServer server(opts);
  auto sink = std::make_shared<CollectingSink>();
  // Not resident in the fresh process: only a worker's lookup reads disk.
  server.admit_line(line, sink);
  ASSERT_EQ(await_lines(*sink, 1).size(), 1u);
  EXPECT_EQ(server.cache().disk_hits(), 1);
  EXPECT_EQ(server.metrics().counter("runs.computed"), 0);
  // Promoted into memory: answered before admit_line returns.
  server.admit_line(line, sink);
  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  server.drain();

  EXPECT_EQ(server.cache().disk_hits(), 1);
  EXPECT_EQ(server.cache().hits(), 2);
  EXPECT_EQ(server.cache().misses(), 0);
  EXPECT_EQ(server.metrics().counter("runs.cached"), 2);
  for (const std::string& response : lines) EXPECT_EQ(response + "\n", cold);
  std::filesystem::remove_all(dir);
}

TEST(Server, TcpStopWithoutClientsExitsCleanly) {
  AnalysisServer server(ServerOptions{});
  std::thread serving([&] {
    EXPECT_EQ(server.serve_tcp("127.0.0.1", 0), ExitCode::kSuccess);
  });
  ASSERT_GT(wait_for_tcp_port(server), 0);
  server.request_stop();
  serving.join();
  EXPECT_TRUE(server.stopped());
}

TEST(Server, TcpBindFailureReportsError) {
  AnalysisServer blocker(ServerOptions{});
  std::thread serving([&] { blocker.serve_tcp("127.0.0.1", 0); });
  int port = wait_for_tcp_port(blocker);
  ASSERT_GT(port, 0);

  AnalysisServer server(ServerOptions{});
  std::string error;
  EXPECT_EQ(server.serve_tcp("127.0.0.1", port, &error), ExitCode::kFailure);
  EXPECT_NE(error.find("bind"), std::string::npos) << error;

  blocker.request_stop();
  serving.join();
}

}  // namespace
}  // namespace lmre
