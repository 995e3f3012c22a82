#include "server/server.h"

#include <unistd.h>

#include <fstream>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "server/epoll_loop.h"
#include "server/tcp.h"

namespace lmre {

namespace {

/// Response sink over a std::ostream (stdio transport, tests).
class StreamSink : public ResponseSink {
 public:
  explicit StreamSink(std::ostream& out) : out_(out) {}

  void write_line(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu_);
    out_ << line << '\n';
    out_.flush();
  }

 private:
  std::mutex mu_;
  std::ostream& out_;
};

}  // namespace

AnalysisServer::AnalysisServer(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_shared<ResultCache>(opts_.session.cache_config())),
      metrics_(std::make_shared<Metrics>()),
      requests_(metrics_->counter_handle("serve.requests")),
      completed_(metrics_->counter_handle("serve.completed")),
      latency_(metrics_->latency_handle("serve.latency_ms")),
      queue_(opts_.queue_depth == 0 ? 1 : opts_.queue_depth) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.queue_depth == 0) opts_.queue_depth = 1;
  metrics_->gauge("serve.workers", static_cast<double>(opts_.workers));
  metrics_->gauge("serve.queue_depth", static_cast<double>(opts_.queue_depth));
  metrics_->gauge("serve.coalesce", opts_.coalesce ? 1.0 : 0.0);
  sessions_.reserve(static_cast<size_t>(opts_.workers));
  workers_.reserve(static_cast<size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    // Concurrency comes from the pool itself; each request runs on its
    // worker's thread, exactly as one `lmre batch` request does.
    sessions_.push_back(
        std::make_unique<AnalysisSession>(opts_.session, cache_, metrics_));
  }
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(*sessions_[static_cast<size_t>(i)]); });
  }
}

AnalysisServer::~AnalysisServer() { drain(); }

void AnalysisServer::respond(const Job& job, const std::string& line) {
  if (job.sink) job.sink->write_line(line);
}

void AnalysisServer::respond_result(const Job& job,
                                    const AnalysisResult& result,
                                    bool coalesced) {
  auto now = std::chrono::steady_clock::now();
  if (job.has_deadline && now >= job.deadline) {
    // Computed too late for this client: it gets `timeout`, but the
    // result was cached, so the next request for this source is warm.
    metrics_->count("serve.timeout");
    respond(job, serve_error(job.request.id_json, ServeStatus::kTimeout,
                             "deadline expired during analysis"));
    return;
  }
  if (coalesced) metrics_->count("serve.coalesced");
  deliver(job.sink.get(), job.request.id_json, job.admitted, result.status,
          result.payload);
}

void AnalysisServer::deliver(ResponseSink* sink, const std::string& id_json,
                             std::chrono::steady_clock::time_point admitted,
                             ExitCode status, const std::string& payload) {
  std::chrono::duration<double, std::milli> latency =
      std::chrono::steady_clock::now() - admitted;
  latency_.observe(latency.count());
  completed_.add();
  if (sink) {
    sink->write_line(serve_response(id_json, serve_status(status), payload));
  }
}

void AnalysisServer::worker_loop(AnalysisSession& session) {
  while (std::optional<Job> job = queue_.pop()) {
    auto now = std::chrono::steady_clock::now();
    if (job->has_deadline && now >= job->deadline) {
      // The leader expired while queued: abandon it before spending any
      // work.  Its flight must still be settled -- waiters with live
      // deadlines joined on the promise of a result.
      metrics_->count("serve.timeout");
      metrics_->count("serve.abandoned");
      respond(*job, serve_error(job->request.id_json, ServeStatus::kTimeout,
                                "deadline expired before dispatch"));
      std::vector<Job> waiters =
          opts_.coalesce ? flights_.finish(job->key) : std::vector<Job>{};
      bool any_live = false;
      for (const Job& w : waiters) {
        if (!w.has_deadline || now < w.deadline) {
          any_live = true;
          break;
        }
      }
      if (any_live) {
        // Compute after all for the waiters' sake.  The flight is already
        // closed, so a late identical arrival re-computes -- acceptable
        // on this exceptional path, and the cache makes it a warm hit.
        AnalysisRequest areq = job->request.analysis;
        areq.file = "<serve>";
        AnalysisResult result = session.run(areq);
        for (const Job& w : waiters) respond_result(w, result, true);
      } else {
        for (const Job& w : waiters) {
          metrics_->count("serve.timeout");
          respond(w, serve_error(w.request.id_json, ServeStatus::kTimeout,
                                 "deadline expired before dispatch"));
        }
      }
      continue;
    }
    AnalysisRequest areq = job->request.analysis;
    areq.file = "<serve>";
    AnalysisResult result = session.run(areq);
    // Close the flight only after the result exists: every identical
    // request admitted during the computation window is in `waiters` and
    // is answered below from the same serialized bytes.
    std::vector<Job> waiters =
        opts_.coalesce ? flights_.finish(job->key) : std::vector<Job>{};
    respond_result(*job, result, false);
    for (const Job& w : waiters) respond_result(w, result, true);
  }
}

void AnalysisServer::admit_line(const std::string& line,
                                const std::shared_ptr<ResponseSink>& sink) {
  requests_.add();
  Job job;
  std::string error;
  if (!parse_request(line, &job.request, &error)) {
    metrics_->count("serve.bad_request");
    if (sink) {
      sink->write_line(
          serve_error(job.request.id_json, ServeStatus::kBadRequest, error));
    }
    return;
  }
  job.admitted = std::chrono::steady_clock::now();
  // The coalescing identity is the cache key: same canonicalized source,
  // kind, and options => same flight, regardless of id or deadline.
  AnalysisSession& session = *sessions_.front();
  job.key = session.request_key(job.request.analysis);
  // A resident result is answered here, on the transport thread: no
  // flight, no queue slot, no worker, and no deadline to miss -- and its
  // payload is copied once, into the response line.  A miss counts
  // nothing yet -- the worker's run() records the one lookup and is the
  // only place the disk layer is read.
  if (std::shared_ptr<const CachedEntry> hit =
          session.recall_resident(job.key)) {
    deliver(sink.get(), job.request.id_json, job.admitted,
            static_cast<ExitCode>(hit->status), hit->payload);
    return;
  }
  job.sink = sink;
  if (job.request.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline =
        job.admitted + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               job.request.deadline_ms));
  }
  if (opts_.coalesce && !flights_.lead_or_wait(job.key, &job)) {
    // A leader for this key is queued or computing; the job is parked in
    // the flight and its worker will answer it.  No queue slot consumed.
    return;
  }
  const std::uint64_t key = job.key;
  std::string id_json = job.request.id_json;  // job is moved by try_push
  if (!queue_.try_push(std::move(job))) {
    metrics_->count("serve.overloaded");
    if (sink) {
      sink->write_line(serve_error(id_json, ServeStatus::kOverloaded,
                                   "request queue full"));
    }
    if (opts_.coalesce) {
      // The leader never made it in; shed any waiters that raced onto
      // the flight between registration and this push.
      for (const Job& w : flights_.finish(key)) {
        metrics_->count("serve.overloaded");
        respond(w, serve_error(w.request.id_json, ServeStatus::kOverloaded,
                               "request queue full"));
      }
    }
    return;
  }
  size_t depth = queue_.size();
  size_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, depth,
                                            std::memory_order_relaxed)) {
  }
}

void AnalysisServer::serve_streams(std::istream& in, std::ostream& out) {
  auto sink = std::make_shared<StreamSink>(out);
  std::string line;
  while (!stopped() && std::getline(in, line)) {
    if (line.empty()) continue;  // blank lines are keep-alive no-ops
    admit_line(line, sink);
  }
  drain();
}

ExitCode AnalysisServer::serve_socket(const std::string& path,
                                      std::string* error) {
  int listen_fd = unix_listen(path, error);
  if (listen_fd < 0) return ExitCode::kFailure;
  serve_listener(listen_fd);
  ::unlink(path.c_str());
  return ExitCode::kSuccess;
}

ExitCode AnalysisServer::serve_tcp(const std::string& host, int port,
                                   std::string* error) {
  int bound_port = 0;
  int listen_fd = tcp_listen(host, port, &bound_port, error);
  if (listen_fd < 0) return ExitCode::kFailure;
  tcp_port_.store(bound_port, std::memory_order_release);
  serve_listener(listen_fd);
  return ExitCode::kSuccess;
}

void AnalysisServer::serve_listener(int listen_fd) {
  EventLoop loop(listen_fd,
                 [this](const std::string& line,
                        const std::shared_ptr<ResponseSink>& sink) {
                   admit_line(line, sink);
                 });
  // Connection counters are live, but folded into the registry only
  // after a step that opened or reaped a connection: a step that just
  // moves request bytes never touches it.
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  auto step = [&](int timeout_ms) {
    loop.step(timeout_ms);
    if (loop.conns_opened() != opened) {
      metrics_->count("serve.conn_opened",
                      static_cast<Int>(loop.conns_opened() - opened));
      opened = loop.conns_opened();
    }
    if (loop.conns_closed() != closed) {
      metrics_->count("serve.conn_closed",
                      static_cast<Int>(loop.conns_closed() - closed));
      closed = loop.conns_closed();
    }
  };
  while (!stopped()) step(100);

  // Drain: stop admitting, then run the queue dry on a side thread while
  // this thread keeps the loop flushing -- in-flight responses are only
  // bytes in per-connection buffers until the loop pushes them out.
  loop.stop_accepting();
  loop.shutdown_reads();
  std::atomic<bool> drained{false};
  std::thread drainer([this, &drained, &loop] {
    drain();
    drained.store(true, std::memory_order_release);
    loop.wake();
  });
  while (!drained.load(std::memory_order_acquire)) step(50);
  // Bounded final flush: clients that linger without reading cannot hold
  // shutdown hostage.
  for (int i = 0; i < 100 && !loop.flushed(); ++i) step(10);
  drainer.join();

  metrics_->gauge("serve.partial_writes",
                  static_cast<double>(loop.partial_writes()));
  metrics_->gauge("serve.bytes_in", static_cast<double>(loop.bytes_in()));
  metrics_->gauge("serve.bytes_out", static_cast<double>(loop.bytes_out()));
  // drain() already wrote the snapshot, but without the loop gauges
  // above (the loop was still flushing); rewrite the complete picture.
  write_metrics_file();
}

void AnalysisServer::drain() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (drained_) return;
  stop_.store(true, std::memory_order_relaxed);
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  drained_ = true;
  write_metrics_file();
}

void AnalysisServer::write_metrics_file() {
  if (opts_.metrics_file.empty()) return;
  std::ofstream mf(opts_.metrics_file, std::ios::trunc);
  if (mf) {
    mf << json_envelope("serve-metrics", metrics_json()).dump(2) << '\n';
  }
}

Json AnalysisServer::metrics_json() {
  export_cache_gauges(*metrics_, *cache_);
  metrics_->gauge("serve.queue_peak",
                  static_cast<double>(queue_peak_.load(std::memory_order_relaxed)));
  return metrics_->to_json();
}

}  // namespace lmre
