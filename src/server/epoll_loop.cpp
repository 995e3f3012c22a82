#include "server/epoll_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace lmre {

namespace {

/// A request line with no newline after this many bytes is not a client,
/// it is a leak; the connection is dropped.
constexpr size_t kMaxLineBytes = 16u << 20;

/// recv calls one connection gets per step (16 KiB each).
constexpr int kReadsPerStep = 64;

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The loop currently dispatching request lines on this thread.  A line
/// answered synchronously (an admission-time cache hit) is flushed by
/// that same step(), so its write_line needs no self-pipe wake.
thread_local const EventLoop* tl_dispatching = nullptr;

}  // namespace

SocketSink::~SocketSink() {
  if (!closed_ && fd_ >= 0) ::close(fd_);
}

void SocketSink::write_line(const std::string& line) {
  EventLoop* loop = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;  // client reaped: responses degrade to a drop
    out_.append(line);
    out_.push_back('\n');
    loop = loop_;
  }
  if (loop && loop != tl_dispatching) loop->wake();
}

EventLoop::EventLoop(int listen_fd, LineHandler on_line)
    : listen_fd_(listen_fd), on_line_(std::move(on_line)) {
  set_nonblocking(listen_fd_);
  if (::pipe(wake_pipe_) == 0) {
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);
  }
}

EventLoop::~EventLoop() {
  stop_accepting();
  for (auto& conn : conns_) close_conn(*conn);
  conns_.clear();
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void EventLoop::wake() {
  if (wake_pipe_[1] < 0) return;
  char byte = 0;
  // A full pipe already guarantees a pending wake; EAGAIN is success.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void EventLoop::stop_accepting() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void EventLoop::shutdown_reads() {
  admit_lines_ = false;
  for (auto& conn : conns_) {
    if (!conn->dead && !conn->read_eof) ::shutdown(conn->fd, SHUT_RD);
  }
}

bool EventLoop::flushed() const {
  for (const auto& conn : conns_) {
    if (conn->dead) continue;
    std::lock_guard<std::mutex> lock(conn->sink->mu_);
    if (conn->sink->out_pos_ < conn->sink->out_.size()) return false;
  }
  return true;
}

void EventLoop::step(int timeout_ms) {
  std::vector<pollfd>& fds = fds_;  // reused: no allocation per step
  fds.clear();
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  size_t listen_slot = 0;
  if (listen_fd_ >= 0) {
    listen_slot = fds.size();
    fds.push_back({listen_fd_, POLLIN, 0});
  }
  const size_t conn_base = fds.size();
  for (auto& conn : conns_) {
    short events = 0;
    if (!conn->read_eof && admit_lines_) events |= POLLIN;
    {
      std::lock_guard<std::mutex> lock(conn->sink->mu_);
      if (conn->sink->out_pos_ < conn->sink->out_.size()) events |= POLLOUT;
    }
    // events == 0 still surfaces POLLERR/POLLHUP, so a vanished client is
    // noticed even when nothing is queued for it.
    fds.push_back({conn->fd, events, 0});
  }

  int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  if (ready < 0 && errno != EINTR) return;

  if (fds[0].revents & POLLIN) {
    char soff[64];
    while (::read(wake_pipe_[0], soff, sizeof soff) > 0) {
    }
  }
  if (listen_fd_ >= 0 && (fds[listen_slot].revents & POLLIN)) accept_ready();

  for (size_t i = 0; i < conns_.size() && conn_base + i < fds.size(); ++i) {
    Conn& conn = *conns_[i];
    short re = fds[conn_base + i].revents;
    if (re & (POLLERR | POLLNVAL)) {
      conn.dead = true;
      continue;
    }
    if (re & (POLLIN | POLLHUP)) read_ready(conn);
    if (!conn.dead) flush(conn);
  }
  reap();
}

void EventLoop::accept_ready() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN: drained the backlog
    set_nonblocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->sink = std::make_shared<SocketSink>(this, fd);
    conns_.push_back(std::move(conn));
    ++conns_opened_;
  }
}

void EventLoop::read_ready(Conn& conn) {
  char chunk[16384];
  tl_dispatching = this;  // step() flushes this conn right after
  // Bounded per step, so one client streaming without pause cannot keep
  // the loop from flushing its responses or serving anyone else.
  for (int reads = 0; reads < kReadsPerStep && !conn.dead;) {
    ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      ++reads;
      bytes_in_ += static_cast<std::uint64_t>(n);
      conn.in.append(chunk, static_cast<size_t>(n));
      frame(conn);
      // Only the unterminated tail counts against the cap: a client that
      // pipelines many short lines is never over it.
      if (conn.in.size() > kMaxLineBytes) conn.dead = true;
      // A short read drained the socket buffer: skip the recv that would
      // only say EAGAIN (poll is level-triggered; later bytes, or EOF,
      // show up in the next step).
      if (static_cast<size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.dead = true;
  }
  tl_dispatching = nullptr;
}

void EventLoop::frame(Conn& conn) {
  // Resume the newline search where the last read left off: a long line
  // arriving in small pieces is scanned once, not once per piece.
  size_t start = 0;
  for (size_t nl = conn.in.find('\n', conn.scanned); nl != std::string::npos;
       nl = conn.in.find('\n', start)) {
    line_.assign(conn.in, start, nl - start);  // reuses line_'s capacity
    start = nl + 1;
    if (!line_.empty() && admit_lines_ && on_line_) on_line_(line_, conn.sink);
  }
  conn.in.erase(0, start);
  conn.scanned = conn.in.size();
}

void EventLoop::flush(Conn& conn) {
  SocketSink& sink = *conn.sink;
  std::lock_guard<std::mutex> lock(sink.mu_);
  while (sink.out_pos_ < sink.out_.size()) {
    ssize_t n = ::send(conn.fd, sink.out_.data() + sink.out_pos_,
                       sink.out_.size() - sink.out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      sink.out_pos_ += static_cast<size_t>(n);
      bytes_out_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full: keep the remainder, retry on POLLOUT.
      ++partial_writes_;
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET / anything else: the client is gone.  Only this
    // connection's bytes are dropped; the loop and workers carry on.
    conn.dead = true;
    return;
  }
  sink.out_.clear();
  sink.out_pos_ = 0;
}

void EventLoop::reap() {
  for (size_t i = 0; i < conns_.size();) {
    Conn& conn = *conns_[i];
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(conn.sink->mu_);
      drained = conn.sink->out_pos_ >= conn.sink->out_.size();
    }
    // use_count() == 1 (the loop's own reference): no queued or in-flight
    // job can still answer on this connection.
    if (conn.dead ||
        (conn.read_eof && drained && conn.sink.use_count() == 1)) {
      close_conn(conn);
      ++conns_closed_;
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void EventLoop::close_conn(Conn& conn) {
  std::lock_guard<std::mutex> lock(conn.sink->mu_);
  if (!conn.sink->closed_) {
    ::close(conn.fd);
    conn.sink->closed_ = true;
    conn.sink->fd_ = -1;
    conn.sink->loop_ = nullptr;  // the sink may outlive this loop
  }
}

}  // namespace lmre
