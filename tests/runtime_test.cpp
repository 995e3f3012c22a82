// Unit + integration tests for the batch analysis runtime (src/runtime):
// metrics registry, content-hash cache (memory + disk layers), and the
// AnalysisSession memoization contract, including the acceptance criterion
// that a warm re-run over examples/loops/ hits the cache for >= 90% of
// files and skips recomputation entirely.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cache.h"
#include "runtime/metrics.h"
#include "runtime/session.h"
#include "support/error.h"

namespace lmre {
namespace {

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  Metrics m;
  EXPECT_EQ(m.counter("x"), 0);
  m.count("x");
  m.count("x", 4);
  EXPECT_EQ(m.counter("x"), 5);
}

TEST(Metrics, GaugesLastWriteWins) {
  Metrics m;
  m.gauge("rate", 0.25);
  m.gauge("rate", 0.75);
  EXPECT_DOUBLE_EQ(m.gauge_value("rate"), 0.75);
  EXPECT_DOUBLE_EQ(m.gauge_value("never"), 0.0);
}

TEST(Metrics, TimersObserveAndSnapshot) {
  Metrics m;
  m.observe_ms("stage.a", 2.0);
  m.observe_ms("stage.a", 3.0);
  { auto t = m.time("stage.b"); }  // near-zero but counted
  std::string s = m.to_json().dump();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"stage.a\""), std::string::npos);
  EXPECT_NE(s.find("\"count\":2"), std::string::npos);
  EXPECT_NE(s.find("\"stage.b\""), std::string::npos);
}

TEST(Metrics, LatencyHistogramQuantiles) {
  Metrics m;
  EXPECT_EQ(m.latency_count("serve.latency_ms"), 0);
  EXPECT_DOUBLE_EQ(m.latency_quantile("serve.latency_ms", 0.5), 0.0);

  // 100 observations spread 1..100 ms: quantiles must land in the right
  // buckets (bounds ...10, 25, 50, 100...) with interpolation inside.
  for (int i = 1; i <= 100; ++i) {
    m.observe_latency("serve.latency_ms", static_cast<double>(i));
  }
  EXPECT_EQ(m.latency_count("serve.latency_ms"), 100);
  double p50 = m.latency_quantile("serve.latency_ms", 0.50);
  double p95 = m.latency_quantile("serve.latency_ms", 0.95);
  double p99 = m.latency_quantile("serve.latency_ms", 0.99);
  EXPECT_GT(p50, 25.0);
  EXPECT_LE(p50, 50.0);
  EXPECT_GT(p95, 50.0);
  EXPECT_LE(p95, 100.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 100.0);

  std::string s = m.to_json().dump();
  EXPECT_NE(s.find("\"histograms_ms\""), std::string::npos);
  EXPECT_NE(s.find("\"p50\""), std::string::npos);
  EXPECT_NE(s.find("\"p95\""), std::string::npos);
  EXPECT_NE(s.find("\"p99\""), std::string::npos);
  EXPECT_NE(s.find("\"max_ms\":100"), std::string::npos);
}

TEST(Metrics, LatencyOverflowBucketReportsMax) {
  Metrics m;
  m.observe_latency("h", 99999.0);  // beyond the last bound (10000 ms)
  m.observe_latency("h", 123456.0);
  EXPECT_DOUBLE_EQ(m.latency_quantile("h", 0.99), 123456.0);
  EXPECT_EQ(m.latency_count("h"), 2);
}

TEST(Metrics, LatencyQuantileNeverExceedsMax) {
  // One 1200 ms observation owns the whole (1000, 2500] bucket; the
  // in-bucket interpolation would put p99 at the 2500 bound.
  Metrics m;
  m.observe_latency("h", 1200.0);
  EXPECT_DOUBLE_EQ(m.latency_quantile("h", 0.50), 1200.0);
  EXPECT_DOUBLE_EQ(m.latency_quantile("h", 0.99), 1200.0);
}

// ---- metric handles --------------------------------------------------------

TEST(MetricsHandles, CounterHandleSharesTheNamedSlot) {
  Metrics m;
  Metrics::Counter h = m.counter_handle("x");
  h.add();
  m.count("x", 2);
  h.add(4);
  EXPECT_EQ(m.counter("x"), 7);
  EXPECT_EQ(m.to_json().dump(), "{\"counters\":{\"x\":7},\"gauges\":{},"
                                "\"histograms_ms\":{},\"timers_ms\":{}}");
}

TEST(MetricsHandles, UnusedHandlesLeaveTheSnapshotUnchanged) {
  // Resolving a handle creates nothing a snapshot shows; adding zero
  // through a handle shows the counter, exactly as count(name, 0) does.
  Metrics with, without;
  with.counter_handle("never");
  with.latency_handle("never_ms");
  with.counter_handle("zero").add(0);
  without.count("zero", 0);
  EXPECT_EQ(with.to_json().dump(), without.to_json().dump());
  EXPECT_NE(with.to_json().dump().find("\"zero\":0"), std::string::npos);
  EXPECT_EQ(with.counter("never"), 0);
  EXPECT_EQ(with.latency_count("never_ms"), 0);
}

TEST(MetricsHandles, OverflowThrowsAndLeavesTheValue) {
  Metrics m;
  Metrics::Counter h = m.counter_handle("big");
  h.add(std::numeric_limits<Int>::max());
  EXPECT_THROW(h.add(1), OverflowError);
  EXPECT_THROW(m.count("big"), OverflowError);
  EXPECT_EQ(m.counter("big"), std::numeric_limits<Int>::max());
}

TEST(MetricsHandles, LatencyHandleMatchesObserveByName) {
  Metrics by_handle, by_name;
  Metrics::Latency h = by_handle.latency_handle("serve.latency_ms");
  for (double ms : {0.01, 0.3, 7.0, 7.0, 99999.0}) {
    h.observe(ms);
    by_name.observe_latency("serve.latency_ms", ms);
  }
  EXPECT_EQ(by_handle.to_json().dump(), by_name.to_json().dump());
  EXPECT_EQ(by_handle.latency_count("serve.latency_ms"), 5);
  EXPECT_DOUBLE_EQ(by_handle.latency_quantile("serve.latency_ms", 1.0), 99999.0);
}

TEST(MetricsHandles, ConcurrentUpdatesAreExact) {
  // The serve loop thread and the workers update one registry through
  // handles and names at once (ThreadSanitizer runs this suite).
  Metrics m;
  Metrics::Counter hits = m.counter_handle("runs.cached");
  Metrics::Latency latency = m.latency_handle("serve.latency_ms");
  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        hits.add();
        m.count("runs.cached");
        latency.observe(0.01 * (i % 7) + t);
        if (i % 500 == 0) m.to_json();  // snapshots race the updates
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(m.counter("runs.cached"), 2 * kThreads * kRounds);
  EXPECT_EQ(m.latency_count("serve.latency_ms"), kThreads * kRounds);
}

// ---- fnv / cache -----------------------------------------------------------

TEST(Fnv, ChainingEqualsConcatenation) {
  EXPECT_EQ(fnv1a("ab"), fnv1a("b", fnv1a("a")));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
  EXPECT_NE(fnv1a(""), 0u);  // offset basis, not zero
}

TEST(ResultCache, MemoryHitAndMissCounters) {
  ResultCache c(4);
  EXPECT_FALSE(c.get(1).has_value());
  c.put(1, {0, "payload"});
  auto hit = c.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, "payload");
  EXPECT_EQ(hit->status, 0);
  EXPECT_EQ(c.hits(), 1);
  EXPECT_EQ(c.misses(), 1);
}

TEST(ResultCache, LruEvictsOldest) {
  ResultCache c(2);
  c.put(1, {0, "a"});
  c.put(2, {0, "b"});
  c.get(1);            // 1 becomes most recent
  c.put(3, {0, "c"});  // evicts 2
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.evictions(), 1);
  EXPECT_TRUE(c.get(1).has_value());
  EXPECT_FALSE(c.get(2).has_value());
  EXPECT_TRUE(c.get(3).has_value());
}

TEST(ResultCache, DiskRoundTripAcrossInstances) {
  std::string dir = ::testing::TempDir() + "lmre_cache_rt";
  std::filesystem::remove_all(dir);
  {
    ResultCache writer(4, dir);
    writer.put(0xabcdef, {3, "{\"error\":\"lint\"}"});
  }
  ResultCache reader(4, dir);
  auto hit = reader.get(0xabcdef);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, 3);
  EXPECT_EQ(hit->payload, "{\"error\":\"lint\"}");
  EXPECT_EQ(reader.disk_hits(), 1);
  // The disk hit was promoted: a second get is a memory hit.
  reader.get(0xabcdef);
  EXPECT_EQ(reader.disk_hits(), 1);
  EXPECT_EQ(reader.hits(), 2);
}

TEST(ResultCache, PayloadWithNewlinesSurvivesDisk) {
  std::string dir = ::testing::TempDir() + "lmre_cache_nl";
  std::filesystem::remove_all(dir);
  std::string payload = "line1\nline2\n\nline4";
  {
    ResultCache writer(4, dir);
    writer.put(7, {0, payload});
  }
  ResultCache reader(4, dir);
  auto hit = reader.get(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, payload);
}

TEST(ResultCache, CorruptDiskFileIsAMissNotAnError) {
  std::string dir = ::testing::TempDir() + "lmre_cache_bad";
  std::filesystem::remove_all(dir);
  ResultCache writer(4, dir);
  writer.put(9, {0, "good"});
  // Find the written file and scribble over its header.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ofstream(e.path(), std::ios::trunc) << "not-a-cache-file\n";
  }
  ResultCache reader(4, dir);
  EXPECT_FALSE(reader.get(9).has_value());
  EXPECT_EQ(reader.misses(), 1);
}

// ---- session ---------------------------------------------------------------

const char* kExample8 = R"(
  for i = 1 to 25
    for j = 1 to 10
      X[2*i + 5*j + 1] = X[2*i + 5*j + 5];
)";

TEST(SessionKey, FormattingAndCommentsDoNotInvalidate) {
  AnalysisSession s;
  AnalysisRequest a{kExample8, "a.loop", AnalysisRequest::Kind::kFull};
  AnalysisRequest b{"# paper example 8\nfor i = 1 to 25\n  for j = 1 to 10\n"
                    "    X[2*i + 5*j + 1]   =   X[2*i + 5*j + 5];\n",
                    "b.loop", AnalysisRequest::Kind::kFull};
  EXPECT_EQ(s.request_key(a), s.request_key(b));
}

TEST(SessionKey, KindAndOptionsInvalidateThreadsDoNot) {
  AnalysisRequest req{kExample8, "x.loop", AnalysisRequest::Kind::kFull};
  AnalysisSession base;

  SessionOptions more_threads;
  more_threads.run.threads = 8;
  EXPECT_EQ(base.request_key(req), AnalysisSession(more_threads).request_key(req));

  SessionOptions strict;
  strict.run.strict = true;
  EXPECT_NE(base.request_key(req), AnalysisSession(strict).request_key(req));

  SessionOptions small_limit;
  small_limit.run.verify_limit = 10;
  EXPECT_NE(base.request_key(req), AnalysisSession(small_limit).request_key(req));

  AnalysisRequest lint_only = req;
  lint_only.set_kind(AnalysisRequest::Kind::kLint);
  EXPECT_NE(base.request_key(req), base.request_key(lint_only));

  AnalysisRequest symbolic = req;
  symbolic.set_kind(AnalysisRequest::Kind::kSymbolic);
  EXPECT_NE(base.request_key(req), base.request_key(symbolic));
  EXPECT_NE(base.request_key(lint_only), base.request_key(symbolic));
}

TEST(Session, SymbolicRunsAreCachedWithSymbolicPayload) {
  const char* source =
      "array A[11][11];\n"
      "for i = 1 to 10\n  for j = 1 to 10\n"
      "    A[i][j] = A[i][j - 1];\n";
  AnalysisSession s;
  AnalysisRequest req{source, "x.loop", AnalysisRequest::Kind::kSymbolic};
  AnalysisResult cold = s.run(req);
  AnalysisResult warm = s.run(req);
  EXPECT_EQ(cold.status, ExitCode::kSuccess);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.payload, warm.payload);
  EXPECT_NE(cold.payload.find("\"symbolic\""), std::string::npos);
  // The symbolic payload is a different document from the full pipeline's.
  AnalysisResult full =
      s.run({source, "x.loop", AnalysisRequest::Kind::kFull});
  EXPECT_FALSE(full.cache_hit);
  EXPECT_NE(full.payload, cold.payload);
}

TEST(Session, SecondRunIsACacheHitWithIdenticalPayload) {
  AnalysisSession s;
  AnalysisRequest req{kExample8, "x.loop", AnalysisRequest::Kind::kFull};
  AnalysisResult cold = s.run(req);
  AnalysisResult warm = s.run(req);
  EXPECT_EQ(cold.status, ExitCode::kSuccess);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.payload, warm.payload);
  EXPECT_EQ(cold.key, warm.key);
  EXPECT_EQ(s.metrics().counter("runs.computed"), 1);
  EXPECT_EQ(s.metrics().counter("runs.cached"), 1);
}

TEST(Session, ErrorStatusesAreCachedToo) {
  AnalysisSession s;
  AnalysisRequest bad{"array A[4];\nfor i = 1 to 10\n  use A[i];\n", "bad.loop",
                      AnalysisRequest::Kind::kFull};
  AnalysisResult cold = s.run(bad);
  AnalysisResult warm = s.run(bad);
  EXPECT_EQ(cold.status, ExitCode::kDiagnostics);
  EXPECT_EQ(warm.status, ExitCode::kDiagnostics);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.payload, warm.payload);
  EXPECT_NE(cold.payload.find("LMRE-E001"), std::string::npos);
}

TEST(Session, ParseErrorBecomesDiagnosticsPayload) {
  AnalysisSession s;
  AnalysisResult r = s.run({"for i = 1 to\n", "t.loop",
                            AnalysisRequest::Kind::kFull});
  EXPECT_EQ(r.status, ExitCode::kDiagnostics);
  EXPECT_NE(r.payload.find("\"error\""), std::string::npos);
  EXPECT_NE(r.payload.find("\"line\""), std::string::npos);
}

TEST(Session, PayloadIsFileNameIndependent) {
  AnalysisSession s;
  AnalysisResult a = s.run({kExample8, "one.loop", AnalysisRequest::Kind::kFull});
  AnalysisResult b = s.run({kExample8, "two.loop", AnalysisRequest::Kind::kFull});
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_TRUE(b.cache_hit);  // same content, different name: one entry
}

// The integer value of the first `"key":` field in a compact payload.
std::optional<Int> int_field(const std::string& payload, const std::string& key) {
  size_t at = payload.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  return std::stoll(payload.substr(at + key.size() + 3));
}

TEST(Session, DowngradedOptimizeReportsTheIdentitysPrediction) {
  // The search's embedding(C) plan reverses B's dependence (2, -1, -9),
  // which the minimizer's kernel-generator distances do not list, so the
  // prover refuses it and the envelope ships the identity instead.  Every
  // number in it must then describe the identity, not the refused plan
  // (whose prediction is 38).
  const char* source =
      "array B[28]; array C[29];\n"
      "for i = 0 to 10\n  for j = 1 to 9\n    for k = 0 to 9\n"
      "      B[i + 2*j - 1] = C[i + j + k] + B[i + 2*j - 1];\n";
  AnalysisSession s;
  AnalysisResult r = s.run({source, "x.loop", AnalysisRequest::Kind::kOptimize});
  ASSERT_EQ(r.status, ExitCode::kSuccess) << r.payload;
  EXPECT_NE(r.payload.find("\"downgraded\":true"), std::string::npos) << r.payload;
  EXPECT_EQ(int_field(r.payload, "predicted_mws"), 55) << r.payload;
  std::optional<Int> after = int_field(r.payload, "mws_after");
  ASSERT_TRUE(after.has_value()) << r.payload;
  EXPECT_EQ(int_field(r.payload, "objective_value"), after) << r.payload;
}

TEST(Session, FreshSessionWarmsFromDiskCache) {
  std::string dir = ::testing::TempDir() + "lmre_session_disk";
  std::filesystem::remove_all(dir);
  SessionOptions opts;
  opts.cache_dir = dir;
  AnalysisRequest req{kExample8, "x.loop", AnalysisRequest::Kind::kFull};
  std::string cold_payload;
  {
    AnalysisSession cold(opts);
    cold_payload = cold.run(req).payload;
  }
  AnalysisSession warm(opts);
  AnalysisResult r = warm.run(req);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.payload, cold_payload);
  EXPECT_EQ(warm.cache().disk_hits(), 1);
  EXPECT_EQ(warm.metrics().counter("runs.computed"), 0);
}

// ---- pinned cache keys -----------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; the loop files live in the
// source tree.  Probe a couple of plausible roots.
std::string loops_dir() {
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (!read_file(std::string(base) + "matmult.loop").empty()) return base;
  }
  return "";
}


// --cache-dir names its files by request_key, so a key that drifts
// silently cold-starts every disk cache.  These values come from the
// implementation that built the canonical string before hashing it; a
// change to them is a cache-format change (bump kHashSalt on purpose,
// never by accident).
const char* kKeyedSource =
    "# fir\narray y[16];\narray x[24];\narray h[8];\nfor i = 1 to 16\n"
    "  for k = 1 to 8\n    {\n      y[i] = y[i] + x[i + k] + h[k];\n    }\n";

TEST(RequestKey, PinnedValueForEveryKindAndKeyedOption) {
  using Kind = AnalysisRequest::Kind;
  using R = AnalysisRequest;
  AnalysisSession plain;
  auto key = [&](R::Options options) {
    return plain.request_key({kKeyedSource, "a.loop", std::move(options)});
  };
  EXPECT_EQ(key(R::Lint{}), 0xf24906f71b131e1eULL);
  EXPECT_EQ(key(R::Analyze{}), 0xa261d821f2687dd5ULL);
  EXPECT_EQ(key(R::Optimize{"miss-ratio:64"}), 0xffaf776d64cf75dcULL);
  EXPECT_EQ(key(R::Full{}), 0xab11616185d4043eULL);
  EXPECT_EQ(key(R::Symbolic{}), 0xdac7677d7e829891ULL);
  EXPECT_EQ(key(R::Verify{"0 1; 1 0"}), 0x52f886b22c92de35ULL);
  EXPECT_EQ(key(R::Codegen{"auto", true, "gcc"}), 0x3cbe881090775790ULL);
  EXPECT_EQ(key(R::Mrc{"auto", 0.25, {16, 64}}), 0x11d24fb6de1160ffULL);

  // The session's keyed run options: strict and verify_limit.
  SessionOptions opts;
  opts.run.strict = true;
  opts.run.verify_limit = 1000;
  AnalysisSession strict(opts);
  EXPECT_EQ(strict.request_key({kKeyedSource, "a.loop", Kind::kAnalyze}),
            0x487d434c2396f670ULL);
}

// The canonical form request_key hashes, built as a string: `#` comments
// stripped, whitespace runs collapsed to one space, none leading or
// trailing.  request_key streams these bytes into FNV-1a instead.
std::string canonicalize(const std::string& source) {
  std::string out;
  bool in_comment = false;
  bool pending_space = false;
  for (char c : source) {
    if (c == '\n') in_comment = false;
    if (in_comment) continue;
    if (c == '#') {
      in_comment = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += c;
  }
  return out;
}

// The whole key recipe over the reference canonical string, for a kind
// without options under default run options.
std::uint64_t reference_key(const std::string& source, const char* kind) {
  std::uint64_t h = fnv1a("lmre-result-v4");
  h = fnv1a(canonicalize(source), h);
  h = fnv1a("|kind=", h);
  h = fnv1a(kind, h);
  h = fnv1a("|verify=", h);
  h = fnv1a(std::to_string(RunOptions{}.verify_limit), h);
  return fnv1a("|lax", h);
}

TEST(RequestKey, StreamingKeyEqualsTheCanonicalStringReference) {
  std::vector<std::string> sources = {
      "",
      "   \t\r\n  ",
      "# only a comment",
      "# comment\n",
      "\tfor i = 1 to 4\r\n\t  use A[i];\r\n",
      "  leading and trailing blanks  \n\n",
      "a#x\nb",
      "a # after code\n  b # again\nc #",
      "a#b#c\n#\n#\r\nd",
      "x\v\fy\r\rz",
      "no newline at the end",
      "\n\n\n",
      "#\n",
      "tabs\tin\t\tthe middle",
      "utf8 \xc3\xa9 bytes\x80\xff stay",
  };
  const std::string dir = loops_dir();
  if (!dir.empty()) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".loop") {
        sources.push_back(read_file(e.path().string()));
      }
    }
  } else {
    ADD_FAILURE() << "examples/loops not found from test cwd";
  }
  AnalysisSession session;
  for (const std::string& src : sources) {
    SCOPED_TRACE(src);
    EXPECT_EQ(session.request_key({src, "a.loop", AnalysisRequest::Kind::kLint}),
              reference_key(src, "lint"));
    EXPECT_EQ(session.request_key({src, "a.loop", AnalysisRequest::Kind::kFull}),
              reference_key(src, "full"));
  }
}

// ---- batch over the shipped corpus ----------------------------------------

std::vector<AnalysisRequest> corpus_requests(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".loop") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  std::vector<AnalysisRequest> reqs;
  for (const std::string& f : files) {
    reqs.push_back({read_file(f), f, AnalysisRequest::Kind::kFull});
  }
  return reqs;
}

TEST(SessionBatch, WarmRunHitsCacheAndSkipsRecomputation) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  std::vector<AnalysisRequest> reqs = corpus_requests(dir);
  ASSERT_GE(reqs.size(), 10u);

  SessionOptions opts;
  opts.run.threads = 4;
  AnalysisSession s(opts);
  std::vector<AnalysisResult> cold = s.run_batch(reqs);
  Int computed_after_cold = s.metrics().counter("runs.computed");
  EXPECT_EQ(computed_after_cold, static_cast<Int>(reqs.size()));

  Int hits_before_warm = s.cache().hits();
  std::vector<AnalysisResult> warm = s.run_batch(reqs);
  // Acceptance criterion: >= 90% warm hit rate and zero recomputation.
  // (The lifetime cache.hit_rate gauge includes the cold misses; the
  // fresh-process warm-run gauge of 1.0 is asserted in cli_tool_test.)
  double warm_hit_rate =
      double(s.cache().hits() - hits_before_warm) / double(reqs.size());
  EXPECT_GE(warm_hit_rate, 0.9);
  EXPECT_EQ(s.metrics().counter("runs.computed"), computed_after_cold)
      << "warm batch recomputed instead of serving from cache";
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(reqs[i].file);
    EXPECT_TRUE(warm[i].cache_hit);
    EXPECT_EQ(cold[i].payload, warm[i].payload);
    EXPECT_EQ(cold[i].status, warm[i].status);
  }
}

TEST(SessionBatch, ResultsIdenticalAtEveryThreadCount) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  std::vector<AnalysisRequest> reqs = corpus_requests(dir);

  SessionOptions serial;
  serial.run.threads = 1;
  AnalysisSession base(serial);
  std::vector<AnalysisResult> expected = base.run_batch(reqs);

  for (int threads : {2, 0}) {
    SessionOptions opts;
    opts.run.threads = threads;
    AnalysisSession s(opts);
    std::vector<AnalysisResult> got = s.run_batch(reqs);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(reqs[i].file + " threads " + std::to_string(threads));
      EXPECT_EQ(got[i].payload, expected[i].payload);
      EXPECT_EQ(got[i].status, expected[i].status);
      EXPECT_EQ(got[i].key, expected[i].key);
    }
  }
}

}  // namespace
}  // namespace lmre
