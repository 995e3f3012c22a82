// lmre_perf_trace: replays a workload's generated requests in-process
// through an AnalysisServer (one worker, one request or burst in flight at
// a time) and records a span around every call into a layer's public
// entry point.
//
//   lmre_perf_trace --requests F --limit N --spans OUT
//
// The spans come from linker wrappers (CMakeLists.txt, --wrap): each
// __wrap_<symbol> below opens a span and calls __real_<symbol>.  Spans
// stay in per-thread memory and are written to OUT when the replay ends;
// the JSON summary on stdout carries <span>.calls/.self_ms/.p50_us plus
// the per-layer counts.  The replay runs alternately untraced and traced
// (fresh server each time) to measure the tracing overhead.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/report.h"
#include "codegen/codegen.h"
#include "common.h"
#include "exact/oracle.h"
#include "ir/parser.h"
#include "lint/lint.h"
#include "mrc/mrc.h"
#include "runtime/cache.h"
#include "runtime/session.h"
#include "server/server.h"
#include "server/wire.h"
#include "support/json.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "verify/verify.h"

namespace {

using Clock = std::chrono::steady_clock;

enum SpanName {
  kParseRequest, kServeResponse, kRequestKey, kCacheGet, kCachePut,
  kParseProgram, kLintProgram, kAnalyzeMemory, kSimulate, kComputeMrc,
  kOptimize, kVerifyPlan, kSymbolic, kEmitC, kSpanCount
};

const char* const kSpanNames[kSpanCount] = {
    "server.parse_request",        "server.serve_response",
    "runtime.request_key",         "runtime.cache.get",
    "runtime.cache.put",           "ir.parse_program",
    "lint.lint_program",           "analysis.analyze_memory",
    "exact.simulate",              "mrc.compute_mrc",
    "transform.optimize_locality", "verify.verify_plan",
    "symbolic.symbolic_analysis",  "codegen.emit_c",
};

struct Span {
  int name;
  int parent;  ///< index into the same thread's spans; -1 at the root
  std::int64_t start_ns, end_ns;
  std::int64_t request;  ///< replayed request (schedule entry); -1 unknown
};

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<int> open;
};

std::atomic<bool> g_tracing{false};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // outlive their threads
thread_local ThreadSpans* tl_spans = nullptr;
thread_local std::int64_t tl_request = -1;

// Cache key -> replayed request, so a worker's spans name the request the
// replay thread admitted.
std::mutex g_keys_mu;
std::unordered_map<std::uint64_t, std::int64_t> g_key_request;

// Per-layer counts, gathered only while tracing.
std::atomic<long long> g_exact_accesses{0};
std::atomic<long long> g_mrc_accesses{0};
std::atomic<long> g_symbolic_usable{0}, g_symbolic_calls{0};
std::atomic<long> g_verify_certified{0}, g_verify_calls{0};
std::atomic<long long> g_c_bytes{0};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

ThreadSpans& local_spans() {
  if (!tl_spans) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    tl_spans = g_threads.back().get();
  }
  return *tl_spans;
}

class SpanScope {
 public:
  explicit SpanScope(int name) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    ts_ = &local_spans();
    index_ = ts_->spans.size();
    ts_->spans.push_back(Span{name, ts_->open.empty() ? -1 : ts_->open.back(),
                              now_ns(), 0, tl_request});
    ts_->open.push_back(static_cast<int>(index_));
  }
  ~SpanScope() {
    if (!ts_) return;
    ts_->spans[index_].end_ns = now_ns();
    ts_->open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const { return ts_ != nullptr; }

 private:
  ThreadSpans* ts_ = nullptr;
  size_t index_ = 0;
};

}  // namespace

// --- Linker wrappers ------------------------------------------------------
// One per symbol in CMakeLists.txt's LMRE_TRACED_SYMBOLS.  A member
// function wraps as a free function taking `this` first (Itanium ABI).

#define TRACE_WRAP(SPAN, SYM, RET, PARAMS, ARGS, ...)    \
  extern "C" RET __real_##SYM PARAMS;                    \
  extern "C" RET __wrap_##SYM PARAMS {                   \
    SpanScope scope(SPAN);                               \
    RET result = __real_##SYM ARGS;                      \
    if (scope.active()) { __VA_ARGS__; }                 \
    return result;                                       \
  }

using namespace lmre;

TRACE_WRAP(kParseRequest,
           _ZN4lmre13parse_requestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_13ServerRequestEPS5_,
           bool, (const std::string& line, ServerRequest* req, std::string* error),
           (line, req, error))
TRACE_WRAP(kServeResponse,
           _ZN4lmre14serve_responseERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_11ServeStatusES7_,
           std::string, (const std::string& id, ServeStatus status, const std::string& payload),
           (id, status, payload))
TRACE_WRAP(kRequestKey, _ZNK4lmre15AnalysisSession11request_keyERKNS_15AnalysisRequestE,
           std::uint64_t, (const AnalysisSession* self, const AnalysisRequest& req),
           (self, req), {
             std::lock_guard<std::mutex> lock(g_keys_mu);
             g_key_request[result] = tl_request;
           })
TRACE_WRAP(kParseProgram,
           _ZN4lmre13parse_programERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_16ProgramSourceMapE,
           Program, (const std::string& source, ProgramSourceMap* map), (source, map))
TRACE_WRAP(kLintProgram,
           _ZN4lmre12lint_programERKNS_7ProgramEPKNS_16ProgramSourceMapERKNS_11LintOptionsE,
           LintResult,
           (const Program& program, const ProgramSourceMap* map, const LintOptions& opts),
           (program, map, opts))
TRACE_WRAP(kAnalyzeMemory, _ZN4lmre14analyze_memoryERKNS_8LoopNestEb, MemoryReport,
           (const LoopNest& nest, bool with_oracle), (nest, with_oracle))
TRACE_WRAP(kSimulate, _ZN4lmre8simulateERKNS_8LoopNestEiRNS_10TraceArenaE, TraceStats,
           (const LoopNest& nest, int threads, TraceArena& arena), (nest, threads, arena),
           g_exact_accesses += result.total_accesses)
TRACE_WRAP(kSimulate,
           _ZN4lmre20simulate_transformedERKNS_8LoopNestERKNS_6IntMatERNS_10TraceArenaE,
           TraceStats, (const LoopNest& nest, const IntMat& t, TraceArena& arena),
           (nest, t, arena), g_exact_accesses += result.total_accesses)
TRACE_WRAP(kComputeMrc,
           _ZN4lmre11compute_mrcERKNS_8LoopNestERKNS_10MrcOptionsERNS_10TraceArenaE,
           MrcResult, (const LoopNest& nest, const MrcOptions& opts, TraceArena& arena),
           (nest, opts, arena),
           g_mrc_accesses += static_cast<long long>(result.aggregate.total))
TRACE_WRAP(kOptimize,
           _ZN4lmre17optimize_localityERKNS_8LoopNestERKNS_16MinimizerOptionsERNS_10TraceArenaE,
           OptimizeResult,
           (const LoopNest& nest, const MinimizerOptions& opts, TraceArena& arena),
           (nest, opts, arena))
TRACE_WRAP(kVerifyPlan,
           _ZN4lmre11verify_planERKNS_8LoopNestERKNS_10VerifyPlanERKNS_13VerifyOptionsE,
           VerifyResult,
           (const LoopNest& nest, const VerifyPlan& plan, const VerifyOptions& opts),
           (nest, plan, opts), ++g_verify_calls; g_verify_certified += result.certified)
TRACE_WRAP(kSymbolic, _ZN4lmre17symbolic_analysisERKNS_8LoopNestE, SymbolicResult,
           (const LoopNest& nest), (nest),
           ++g_symbolic_calls; g_symbolic_usable += result.usable())
TRACE_WRAP(kEmitC,
           _ZN4lmre6emit_cERKNS_8LoopNestERKNS_10VerifyPlanERKNS_14CodegenOptionsE,
           CodegenResult,
           (const LoopNest& nest, const VerifyPlan& plan, const CodegenOptions& opts),
           (nest, plan, opts),
           g_c_bytes += static_cast<long long>(result.c_source.size()))

extern "C" std::optional<CachedEntry> __real__ZN4lmre11ResultCache3getEm(ResultCache* self,
                                                                          std::uint64_t key);
extern "C" std::optional<CachedEntry> __wrap__ZN4lmre11ResultCache3getEm(ResultCache* self,
                                                                          std::uint64_t key) {
  // The worker's first layer call for a request: adopt the request id the
  // replay thread hashed this key under.
  if (g_tracing.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(g_keys_mu);
    auto it = g_key_request.find(key);
    tl_request = it == g_key_request.end() ? -1 : it->second;
  }
  SpanScope scope(kCacheGet);
  return __real__ZN4lmre11ResultCache3getEm(self, key);
}

extern "C" void __real__ZN4lmre11ResultCache3putEmNS_11CachedEntryE(ResultCache* self,
                                                                     std::uint64_t key,
                                                                     CachedEntry entry);
extern "C" void __wrap__ZN4lmre11ResultCache3putEmNS_11CachedEntryE(ResultCache* self,
                                                                     std::uint64_t key,
                                                                     CachedEntry entry) {
  SpanScope scope(kCachePut);
  __real__ZN4lmre11ResultCache3putEmNS_11CachedEntryE(self, key, std::move(entry));
}

// --- Replay ---------------------------------------------------------------

namespace {

/// Collects response lines and lets the replay wait for a count.
class CollectSink : public ResponseSink {
 public:
  void write_line(const std::string& line) override {
    perf::Response r = perf::parse_response(line);
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (!r.ok || !r.is_result || r.status >= 5) ++failed_;
    cv_.notify_all();
  }
  void wait_for(long n) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30), [&] { return count_ >= n; })) {
      throw std::runtime_error("replay: no response within 30 s");
    }
  }
  long failed() {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  long count_ = 0;
  long failed_ = 0;
};

struct PassResult {
  double seconds = 0;
  long requests = 0;
  long failed = 0;
  std::map<std::string, double> counts;
};

/// One replay over a fresh server: untimed warm-up, then the first `limit`
/// schedule entries, admitted one at a time, or one burst (entries sharing
/// a send time) at a time on the open loop.
PassResult replay(const perf::RequestFile& file, size_t limit, bool traced) {
  AnalysisServer server(perf::serve_defaults(1));
  auto sink = std::make_shared<CollectSink>();
  long expected = 0;
  uint64_t id = 1;
  for (int t : file.warmup) {
    server.admit_line(perf::request_line(file.templates[static_cast<size_t>(t)], id++), sink);
    sink->wait_for(++expected);
  }
  auto counter = [&](const char* name) { return static_cast<double>(server.metrics().counter(name)); };
  const char* kCounters[] = {"oracle.fallback_runs", "oracle.sparse_stores", "oracle.accesses",
                             "serve.coalesced", "serve.overloaded"};
  std::map<std::string, double> before;
  for (const char* c : kCounters) before[c] = counter(c);
  const double hits0 = static_cast<double>(server.cache().hits());
  const double misses0 = static_cast<double>(server.cache().misses());
  const double evictions0 = static_cast<double>(server.cache().evictions());
  const long failed0 = sink->failed();

  const size_t n_total = std::min(limit, file.schedule.size());
  g_tracing = traced;
  Clock::time_point t0 = Clock::now();
  for (size_t n = 0; n < n_total;) {
    size_t group_end = n + 1;
    if (file.mode == "open") {
      while (group_end < n_total && file.times[group_end] == file.times[n]) ++group_end;
    }
    for (; n < group_end; ++n) {
      tl_request = static_cast<std::int64_t>(n);
      server.admit_line(
          perf::request_line(file.templates[static_cast<size_t>(file.schedule[n])], id++), sink);
      ++expected;
    }
    sink->wait_for(expected);
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  g_tracing = false;
  tl_request = -1;

  PassResult out;
  out.seconds = seconds;
  out.requests = static_cast<long>(n_total);
  out.failed = sink->failed() - failed0;
  for (const char* c : kCounters) out.counts[c] = counter(c) - before[c];
  const double hits = static_cast<double>(server.cache().hits()) - hits0;
  const double lookups = hits + static_cast<double>(server.cache().misses()) - misses0;
  out.counts["cache.hits"] = hits;
  out.counts["cache.lookups"] = lookups;
  out.counts["cache.evictions"] = static_cast<double>(server.cache().evictions()) - evictions0;
  server.metrics_json();  // folds the queue high-water mark into the gauges
  out.counts["serve.queue_peak"] = server.metrics().gauge_value("serve.queue_peak");
  server.drain();
  return out;
}

void reset_trace() {
  {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    for (auto& t : g_threads) t->spans.clear();
  }
  {
    std::lock_guard<std::mutex> lock(g_keys_mu);
    g_key_request.clear();
  }
  g_exact_accesses = 0;
  g_mrc_accesses = 0;
  g_symbolic_usable = 0;
  g_symbolic_calls = 0;
  g_verify_certified = 0;
  g_verify_calls = 0;
  g_c_bytes = 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string requests, spans_out;
  size_t limit = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--requests") requests = v;
    else if (k == "--limit") limit = static_cast<size_t>(std::stol(v));
    else if (k == "--spans") spans_out = v;
    else {
      std::cerr << "lmre_perf_trace: unknown flag " << k << '\n';
      return 2;
    }
  }
  try {
    perf::RequestFile file = perf::read_request_file(requests);
    // Alternate untraced and traced passes; the last traced pass's spans
    // and counts are the ones reported.
    double untraced_s = 0, traced_s = 0;
    PassResult last;
    for (int round = 0; round < 2; ++round) {
      untraced_s += replay(file, limit, false).seconds;
      reset_trace();
      last = replay(file, limit, true);
      traced_s += last.seconds;
    }

    struct Agg {
      long calls = 0;
      double total_ns = 0, self_ns = 0;
      std::vector<double> dur_us;
    };
    std::vector<Agg> agg(kSpanCount);
    std::ofstream out(spans_out);
    out << "thread\tspan\tname\tparent\trequest\tstart_ns\tend_ns\n";
    int thread_no = 0;
    for (auto& ts : g_threads) {
      std::vector<double> child_ns(ts->spans.size(), 0.0);
      for (const Span& s : ts->spans) {
        if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
      }
      for (size_t i = 0; i < ts->spans.size(); ++i) {
        const Span& s = ts->spans[i];
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        Agg& a = agg[static_cast<size_t>(s.name)];
        ++a.calls;
        a.total_ns += dur;
        a.self_ns += dur - child_ns[i];
        a.dur_us.push_back(dur / 1e3);
        out << thread_no << '\t' << i << '\t' << kSpanNames[s.name] << '\t' << s.parent << '\t'
            << s.request << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
      }
      ++thread_no;
    }

    lmre::Json spans = lmre::Json::object();
    for (int s = 0; s < kSpanCount; ++s) {
      Agg& a = agg[static_cast<size_t>(s)];
      spans.set(kSpanNames[s], lmre::Json::object()
                                   .set("calls", static_cast<lmre::Int>(a.calls))
                                   .set("self_ms", a.self_ns / 1e6)
                                   .set("total_ms", a.total_ns / 1e6)
                                   .set("p50_us", perf::quantile(a.dur_us, 0.5)));
    }
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const Agg& sim = agg[kSimulate];
    const Agg& mrc = agg[kComputeMrc];
    lmre::Json counts = lmre::Json::object();
    counts.set("exact.accesses", static_cast<lmre::Int>(g_exact_accesses.load()))
        .set("exact.ns_per_access", ratio(sim.total_ns, static_cast<double>(g_exact_accesses.load())))
        .set("exact.fallback_runs", last.counts["oracle.fallback_runs"])
        .set("exact.sparse_stores", last.counts["oracle.sparse_stores"])
        .set("mrc.accesses", static_cast<lmre::Int>(g_mrc_accesses.load()))
        .set("mrc.ns_per_access", ratio(mrc.total_ns, static_cast<double>(g_mrc_accesses.load())))
        .set("symbolic.usable_ratio", ratio(static_cast<double>(g_symbolic_usable.load()),
                                            static_cast<double>(g_symbolic_calls.load())))
        .set("verify.certified_ratio", ratio(static_cast<double>(g_verify_certified.load()),
                                             static_cast<double>(g_verify_calls.load())))
        .set("codegen.c_bytes", static_cast<lmre::Int>(g_c_bytes.load()))
        .set("runtime.cache.hit_ratio", ratio(last.counts["cache.hits"], last.counts["cache.lookups"]))
        .set("runtime.cache.lookups", last.counts["cache.lookups"])
        .set("runtime.cache.evictions", last.counts["cache.evictions"])
        .set("server.coalesced", last.counts["serve.coalesced"])
        .set("server.overloaded", last.counts["serve.overloaded"])
        .set("server.queue_peak", last.counts["serve.queue_peak"])
        .set("trace.overhead_ratio", ratio(traced_s, untraced_s));
    lmre::Json doc = lmre::Json::object();
    doc.set("requests", static_cast<lmre::Int>(last.requests))
        .set("failed", static_cast<lmre::Int>(last.failed))
        .set("untraced_s", untraced_s)
        .set("traced_s", traced_s)
        .set("spans", std::move(spans))
        .set("counts", std::move(counts));
    std::cout << doc.dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "lmre_perf_trace: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
