// Tests for the lmre serve subsystem (src/server): the wire-JSON reader
// with verbatim raw slices, request validation, and the AnalysisServer
// over all three transports (stdio, Unix socket, TCP) -- byte-identity
// with direct session runs, load-shedding at a full queue, single-flight
// coalescing of identical requests, deadline expiry, graceful drain,
// dead-client teardown, concurrent clients sharing one warm cache, and
// cache hits answered at admission (never shed, one lookup per request).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
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

// Heavy enough (3-deep nest, full pipeline with optimize search) that a
// worker is measurably busy while follow-up lines are admitted.
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

TEST(Server, FullQueueShedsWithOverloaded) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  AnalysisServer server(opts);
  auto sink = std::make_shared<CollectingSink>();

  // Stage the scenario deterministically: the single worker must hold the
  // heavy request BEFORE the next two lines arrive, so wait for it to
  // leave the queue (compute takes milliseconds; the admits below take
  // microseconds, so the worker is still busy for them).
  server.admit_line(request_line("\"heavy\"", kMatmultSource), sink);
  for (int i = 0; i < 2000 && server.queued() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), 0u) << "worker never picked up the request";
  // Distinct kinds of the same source: different cache keys, so the third
  // line cannot coalesce onto the second -- it must hit the full queue.
  server.admit_line(request_line("\"queued\"", kFirSource), sink);  // fills depth 1
  server.admit_line(request_line("\"shed\"", kFirSource, "analyze"), sink);  // queue full
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

// Admits `lines` while the single worker is busy on `heavy` and the one
// queue slot holds `filler`: any of them answered other than `overloaded`
// did not go through the queue.
void admit_behind_full_queue(AnalysisServer& server,
                             const std::shared_ptr<CollectingSink>& sink,
                             const std::string& heavy,
                             const std::string& filler,
                             const std::vector<std::string>& lines) {
  server.admit_line(heavy, sink);
  for (int i = 0; i < 2000 && server.queued() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), 0u) << "worker never picked up the request";
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
  auto sink = std::make_shared<CollectingSink>();

  // Cold: the line is not resident, so behind a full queue it is shed.
  ASSERT_NO_FATAL_FAILURE(admit_behind_full_queue(
      server, sink, request_line("\"heavy\"", kMatmultSource),
      request_line("\"filler\"", kFirSource, "lint"),
      {request_line("\"cold\"", kFirSource, "analyze")}));
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
      server, sink, request_line("\"heavy2\"", heavy2),
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
  auto sink = std::make_shared<CollectingSink>();

  // Occupy the single worker with a heavy unrelated request so the five
  // identical lines below are all admitted while their leader is still
  // queued -- the flight stays open for every one of them.
  server.admit_line(request_line("\"busy\"", kMatmultSource), sink);
  for (int i = 0; i < 2000 && server.queued() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), 0u) << "worker never picked up the request";
  constexpr int kIdentical = 5;
  for (int i = 0; i < kIdentical; ++i) {
    server.admit_line(request_line(std::to_string(i), kFirSource), sink);
  }
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

// ---- socket transport ------------------------------------------------------

std::string test_socket_path(const char* name) {
  // sun_path is ~108 bytes; TempDir can be long, so fall back to /tmp.
  std::string path = ::testing::TempDir() + name;
  if (path.size() >= 100) path = std::string("/tmp/") + name;
  ::unlink(path.c_str());
  return path;
}

// One-shot client: connect, send `line`, read one response line.
std::string roundtrip(const std::string& path, const std::string& line) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  std::string framed = line + '\n';
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
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

// Connect-only unix client (the disconnect tests need a raw fd).
int unix_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
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
  int fd = tcp_connect("127.0.0.1", port);
  if (fd < 0) return "";
  send_all(fd, line);
  ::shutdown(fd, SHUT_WR);  // half-close: the response must still arrive
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
  EXPECT_EQ(server.metrics().gauge_value("serve.tcp_conns_opened"), 1.0);
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
  EXPECT_EQ(server.metrics().gauge_value("serve.tcp_conns_opened"), 2.0);
  EXPECT_EQ(server.metrics().gauge_value("serve.tcp_conns_closed"), 2.0);
}

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
  std::string text;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    text.append(chunk, static_cast<size_t>(n));
  }
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
