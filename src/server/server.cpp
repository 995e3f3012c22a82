#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <list>
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

/// Response sink over a connected Unix socket; owns the fd (closed when
/// the last job / reader reference is gone).
class FdSink : public ResponseSink {
 public:
  explicit FdSink(int fd) : fd_(fd) {}
  ~FdSink() override { ::close(fd_); }

  int fd() const { return fd_; }

  void write_line(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string framed = line + '\n';
    size_t sent = 0;
    while (sent < framed.size()) {
      // MSG_NOSIGNAL: a client that hung up costs us an EPIPE errno, not
      // a process-killing SIGPIPE.  Only this connection's response is
      // dropped; every other client's lines are written by their own
      // sink, so one dead client never loses another's answer.
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return;  // client gone; drop the response
      sent += static_cast<size_t>(n);
    }
  }

 private:
  std::mutex mu_;
  int fd_;
};

}  // namespace

AnalysisServer::AnalysisServer(ServerOptions opts)
    : opts_(std::move(opts)),
      queue_(opts_.queue_depth == 0 ? 1 : opts_.queue_depth) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.queue_depth == 0) opts_.queue_depth = 1;
  cache_ = std::make_shared<ResultCache>(opts_.session.cache_config());
  metrics_ = std::make_shared<Metrics>();
  metrics_->gauge("serve.workers", static_cast<double>(opts_.workers));
  metrics_->gauge("serve.queue_depth", static_cast<double>(opts_.queue_depth));
  metrics_->gauge("serve.coalesce", opts_.coalesce ? 1.0 : 0.0);
  sessions_.reserve(static_cast<size_t>(opts_.workers));
  workers_.reserve(static_cast<size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    // Workers always analyze with threads=1: one request never fans out
    // inside the pool (concurrency comes from the pool itself), and
    // threads is not part of the cache key, so single-threaded results
    // are bit-identical to any batch run.
    SessionOptions wopts = opts_.session;
    wopts.run.threads = 1;
    sessions_.push_back(
        std::make_unique<AnalysisSession>(wopts, cache_, metrics_));
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
  std::chrono::duration<double, std::milli> latency = now - job.admitted;
  metrics_->observe_latency("serve.latency_ms", latency.count());
  metrics_->count("serve.completed");
  if (coalesced) metrics_->count("serve.coalesced");
  respond(job, serve_response(job.request.id_json,
                              serve_status(result.status), result.payload));
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
  metrics_->count("serve.requests");
  Job job;
  job.sink = sink;
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
  // flight, no queue slot, no worker, and no deadline to miss.  A miss
  // counts nothing yet -- the worker's run() records the one lookup and
  // is the only place the disk layer is read.
  if (std::optional<AnalysisResult> hit = session.recall_resident(job.key)) {
    respond_result(job, *hit, false);
    return;
  }
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

ExitCode AnalysisServer::serve_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return ExitCode::kFailure;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return ExitCode::kFailure;
  ::unlink(path.c_str());  // replace a stale socket from a dead server
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    ::close(listen_fd);
    return ExitCode::kFailure;
  }

  std::mutex conns_mu;
  std::vector<std::weak_ptr<FdSink>> conns;
  struct Reader {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::list<Reader> readers;

  // Accept loop: poll with a short timeout so request_stop() (one atomic
  // store, possibly from a signal handler) is noticed within ~100ms.
  while (!stopped()) {
    // Reap readers whose clients already left: a long-lived server must
    // not accumulate one parked thread per connection it ever served.
    for (auto it = readers.begin(); it != readers.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        metrics_->count("serve.conn_closed");
        it = readers.erase(it);
      } else {
        ++it;
      }
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    metrics_->count("serve.conn_opened");
    auto sink = std::make_shared<FdSink>(fd);
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.push_back(sink);
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    readers.push_back(Reader{
        std::thread([this, sink, done] {
          // Per-connection reader: split the byte stream into lines,
          // admit each.  The sink keeps the fd alive for any in-flight
          // responses after this thread exits.
          std::string buffer;
          char chunk[4096];
          while (true) {
            ssize_t n = ::recv(sink->fd(), chunk, sizeof chunk, 0);
            if (n <= 0) break;  // EOF, error, or shutdown(SHUT_RD) on drain
            buffer.append(chunk, static_cast<size_t>(n));
            size_t start = 0;
            for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
                 nl = buffer.find('\n', start)) {
              std::string line = buffer.substr(start, nl - start);
              start = nl + 1;
              if (!line.empty()) admit_line(line, sink);
            }
            buffer.erase(0, start);
          }
          done->store(true, std::memory_order_release);
        }),
        done});
  }

  ::close(listen_fd);
  ::unlink(path.c_str());
  {
    // Wake readers blocked in recv: half-close the read side only, so
    // responses for in-flight requests still go out below.
    std::lock_guard<std::mutex> lock(conns_mu);
    for (auto& weak : conns) {
      if (auto sink = weak.lock()) ::shutdown(sink->fd(), SHUT_RD);
    }
  }
  for (Reader& r : readers) {
    r.thread.join();
    metrics_->count("serve.conn_closed");
  }
  drain();  // finish everything admitted; every request gets its response
  return ExitCode::kSuccess;
}

ExitCode AnalysisServer::serve_tcp(const std::string& host, int port,
                                   std::string* error) {
  int bound_port = 0;
  int listen_fd = tcp_listen(host, port, &bound_port, error);
  if (listen_fd < 0) return ExitCode::kFailure;
  tcp_port_.store(bound_port, std::memory_order_release);

  EventLoop loop(listen_fd,
                 [this](const std::string& line,
                        const std::shared_ptr<ResponseSink>& sink) {
                   admit_line(line, sink);
                 });
  while (!stopped()) loop.step(100);

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
  while (!drained.load(std::memory_order_acquire)) loop.step(50);
  // Bounded final flush: clients that linger without reading cannot hold
  // shutdown hostage.
  for (int i = 0; i < 100 && !loop.flushed(); ++i) loop.step(10);
  drainer.join();

  metrics_->gauge("serve.tcp_conns_opened",
                  static_cast<double>(loop.conns_opened()));
  metrics_->gauge("serve.tcp_conns_closed",
                  static_cast<double>(loop.conns_closed()));
  metrics_->gauge("serve.tcp_partial_writes",
                  static_cast<double>(loop.partial_writes()));
  metrics_->gauge("serve.tcp_bytes_in", static_cast<double>(loop.bytes_in()));
  metrics_->gauge("serve.tcp_bytes_out", static_cast<double>(loop.bytes_out()));
  // drain() already wrote the snapshot, but without the loop gauges
  // above (the loop was still flushing); rewrite the complete picture.
  write_metrics_file();
  return ExitCode::kSuccess;
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
