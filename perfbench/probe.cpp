// Contention probes for the warm serve path's suspected serialization
// points: ResultCache::get on a hit, and Metrics::count, each timed at one
// thread and at `threads` threads hammering the same object.  The keys and
// payloads are the warm_hits key set's own; the cache has `lmre serve`'s
// default policy.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/cache.h"
#include "runtime/metrics.h"
#include "runtime/session.h"
#include "server/wire.h"
#include "support/json.h"

namespace perf {

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `op(thread, i)` on `threads` threads for about `ms` milliseconds
/// and returns the thread-time per operation in ns (median of `reps`).
template <class Op>
double ns_per_op(int threads, double ms, int reps, Op op) {
  std::vector<double> results;
  for (int r = 0; r < reps; ++r) {
    std::atomic<bool> go{false}, stop{false};
    std::atomic<long> ops{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        long n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int k = 0; k < 64; ++k) op(t, n++);
        }
        ops += n;
      });
    }
    Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    stop = true;
    for (std::thread& t : pool) t.join();
    double wall_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    results.push_back(wall_ns * threads / static_cast<double>(ops.load()));
  }
  return quantile(results, 0.5);
}

}  // namespace

int run_probe(const std::vector<std::string>& argv) {
  std::string requests;
  int threads = 1;
  for (size_t i = 0; i + 1 < argv.size(); i += 2) {
    if (argv[i] == "--requests") requests = argv[i + 1];
    else if (argv[i] == "--threads") threads = std::stoi(argv[i + 1]);
    else throw std::runtime_error("probe: unknown flag " + argv[i]);
  }
  RequestFile file = read_request_file(requests);
  std::vector<lmre::AnalysisRequest> reqs;
  for (const Template& t : file.templates) {
    lmre::ServerRequest sr;
    std::string err;
    if (!lmre::parse_request(request_line(t, 0), &sr, &err)) {
      throw std::runtime_error("probe: request does not parse: " + err);
    }
    reqs.push_back(sr.analysis);
  }
  lmre::SessionOptions opts;
  opts.run.threads = threads;
  lmre::AnalysisSession session(opts);
  std::vector<lmre::AnalysisResult> results = session.run_batch(reqs);

  lmre::ResultCacheConfig config = serve_defaults(threads).session.cache_config();
  config.capacity = std::max(config.capacity, results.size());
  lmre::ResultCache cache(config);
  std::vector<std::uint64_t> keys;
  for (const lmre::AnalysisResult& r : results) {
    cache.put(r.key, lmre::CachedEntry{lmre::to_int(r.status), r.payload});
    keys.push_back(r.key);
  }
  auto get_hit = [&](int, long i) {
    if (!cache.get(keys[static_cast<size_t>(i) % keys.size()])) {
      throw std::runtime_error("probe: warm key missed");
    }
  };
  lmre::Metrics metrics;
  auto count = [&](int, long) { metrics.count("runs.cached"); };

  constexpr int kReps = 5;
  constexpr double ms = 100;
  lmre::Json out = lmre::Json::object();
  out.set("threads", threads);
  out.set("keys", static_cast<lmre::Int>(keys.size()));
  out.set("runtime.cache.get_hit_ns", ns_per_op(1, ms, kReps, get_hit));
  out.set("runtime.cache.get_hit_ns_contended", ns_per_op(threads, ms, kReps, get_hit));
  out.set("runtime.metrics.count_ns", ns_per_op(1, ms, kReps, count));
  out.set("runtime.metrics.count_ns_contended", ns_per_op(threads, ms, kReps, count));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perf
