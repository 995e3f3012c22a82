#pragma once

// lmre serve: a long-running concurrent analysis daemon.
//
// One AnalysisServer owns a fixed pool of worker threads, each running its
// own AnalysisSession over ONE shared ResultCache and ONE shared Metrics
// registry -- so every client warms the cache for every other client, and
// one snapshot describes the whole process.  Requests arrive as
// newline-delimited JSON (server/wire.h) over any transport:
//
//  * serve_tcp(host, port) and serve_socket(path): a TCP or Unix-domain
//    stream listener, both driven by one poll-based event loop
//    (server/epoll_loop.h) -- one thread owns every socket and there are
//    no per-connection reader threads; workers only ever append response
//    bytes to per-connection buffers, so dead clients and clients that
//    never read cost the loop an errno or a buffer, never a worker.
//    Responses go back over the connection that carried the request
//    (interleaved across requests, correlated by id), and
//  * serve_streams(in, out): stdin/stdout framing for tests and scripts.
//
// Cache hits at admission: admit_line hashes every parsed request and
// probes the in-memory result cache (ResultCache::get_resident, which
// never reads disk and never counts a miss).  A resident result is
// answered on the admitting thread -- no flight, no queue slot, no
// worker -- so a hit is never shed or timed out, and it may overtake an
// earlier cold request on the same connection (responses are correlated
// by id).  A miss goes on to coalescing and the queue; the worker's
// session.run() counts the one miss and is the only reader of the disk
// layer.
//
// Admission control: a BoundedQueue between the transports and the pool.  A
// full queue sheds the request immediately with an `overloaded` error --
// backlog is bounded by construction, never buffered.  Deadlines: a
// request with options.deadline_ms is abandoned (without computing) if it
// is still queued when the deadline passes, and reported `timeout` if the
// deadline passed during computation; computation is never preempted
// mid-stage, and a late result is still cached for the next client.
//
// Single-flight coalescing (server/coalesce.h, on by default): while a
// request for key K is queued or computing, any further request hashing
// to K parks as a waiter instead of being queued.  The one computation's
// serialized result answers the whole group, so a thundering herd of
// identical cold requests costs one `runs.total`, one queue slot, and M
// byte-identical response lines.
//
// Shutdown: request_stop() is async-signal-safe (one atomic store).  The
// transport loop notices within its poll interval, stops admitting,
// half-closes every connection's read side, drains in-flight work,
// flushes buffered responses and metrics, and exits cleanly -- every
// admitted request gets a response.
//
// The determinism contract extends to the wire: a serve response's result
// payload is byte-identical to what `lmre batch` embeds for the same
// source and kind (workers run with threads=1, and the payload is spliced
// verbatim -- never re-encoded).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/session.h"
#include "server/coalesce.h"
#include "server/queue.h"
#include "server/wire.h"
#include "support/error.h"
#include "support/json.h"

namespace lmre {

struct ServerOptions {
  int workers = 1;           ///< pool size (>= 1 enforced)
  size_t queue_depth = 256;  ///< bounded backlog (>= 1 enforced)
  bool coalesce = true;      ///< single-flight identical-request coalescing
  SessionOptions session;    ///< cache policy + run options
  std::string metrics_file;  ///< snapshot written on drain; "" = none
};

/// Where a response line goes (one per client connection / stream).
/// write_line is thread-safe per sink: workers and the transport thread
/// interleave whole lines, never bytes.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void write_line(const std::string& line) = 0;
};

class AnalysisServer {
 public:
  explicit AnalysisServer(ServerOptions opts);

  /// Drains and joins the pool if still running.
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Stdio transport: reads request lines from `in` until EOF or
  /// request_stop, writes response lines to `out`, then drains (every
  /// admitted request is answered before returning).
  void serve_streams(std::istream& in, std::ostream& out);

  /// Unix-domain socket transport: binds `path` (replacing a stale
  /// socket file) and runs the same event loop as serve_tcp until
  /// request_stop(), then drains, flushes, and removes the socket file.
  /// kFailure when the socket cannot be created/bound (reason in *error
  /// when given).
  ExitCode serve_socket(const std::string& path, std::string* error = nullptr);

  /// TCP transport: binds host:port (port 0 = kernel-assigned; see
  /// tcp_port()) and runs the poll-based event loop on the calling thread
  /// until request_stop(), then drains and flushes every buffered
  /// response before returning.  kFailure when binding fails (reason in
  /// *error when given).
  ExitCode serve_tcp(const std::string& host, int port,
                     std::string* error = nullptr);

  /// The port serve_tcp actually bound, or -1 before binding.  Readable
  /// from other threads (tests bind port 0 and discover the port here).
  int tcp_port() const { return tcp_port_.load(std::memory_order_acquire); }

  /// Parses one request line and answers it from the in-memory cache, or
  /// coalesces, queues, or sheds it; a cache hit or any immediate error
  /// (bad_request / overloaded) is written to `sink` before returning.
  /// Exposed for tests; transports call this per line.
  void admit_line(const std::string& line,
                  const std::shared_ptr<ResponseSink>& sink);

  /// Stops accepting new work.  Async-signal-safe (atomic store only);
  /// transports notice and begin the drain.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// Closes the queue, finishes in-flight requests, joins the pool, and
  /// writes options().metrics_file when set.  Idempotent.
  void drain();

  /// Metrics snapshot with shared-cache counters folded in as gauges
  /// (same shape as AnalysisSession::metrics_json).
  Json metrics_json();

  Metrics& metrics() { return *metrics_; }
  const ResultCache& cache() const { return *cache_; }
  const ServerOptions& options() const { return opts_; }

  /// Requests currently waiting in the bounded queue (not in-flight ones).
  /// Tests use this to stage deterministic overload scenarios.
  size_t queued() const { return queue_.size(); }

 private:
  struct Job {
    ServerRequest request;
    std::shared_ptr<ResponseSink> sink;
    std::uint64_t key = 0;  ///< content hash; the coalescing identity
    std::chrono::steady_clock::time_point admitted;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
  };

  /// Runs the event loop over `listen_fd` (owned) until request_stop(),
  /// then drains and flushes; the body of both socket transports.
  void serve_listener(int listen_fd);
  void worker_loop(AnalysisSession& session);
  void respond(const Job& job, const std::string& line);
  /// Deadline-checks, records latency/counters, and writes the response
  /// for one member of a result group (`coalesced` marks waiters).
  void respond_result(const Job& job, const AnalysisResult& result,
                      bool coalesced);
  /// Records one delivered result (latency since `admitted`, completion)
  /// and writes its response line to `sink`.
  void deliver(ResponseSink* sink, const std::string& id_json,
               std::chrono::steady_clock::time_point admitted,
               ExitCode status, const std::string& payload);
  void write_metrics_file();

  ServerOptions opts_;
  std::shared_ptr<ResultCache> cache_;
  std::shared_ptr<Metrics> metrics_;
  // The admission hit path's metrics, resolved once.
  Metrics::Counter requests_;   ///< serve.requests
  Metrics::Counter completed_;  ///< serve.completed
  Metrics::Latency latency_;    ///< serve.latency_ms
  std::vector<std::unique_ptr<AnalysisSession>> sessions_;
  BoundedQueue<Job> queue_;
  SingleFlight<Job> flights_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<int> tcp_port_{-1};
  std::atomic<size_t> queue_peak_{0};  ///< high-water mark of queued jobs
  bool drained_ = false;
  std::mutex drain_mu_;  ///< serializes drain() callers
};

}  // namespace lmre
