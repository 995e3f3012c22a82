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

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The loop currently dispatching request lines on this thread.  A line
/// answered synchronously (an admission-time cache hit) is flushed by
/// that same step(), so its write_line needs no self-pipe wake.
thread_local const EventLoop* tl_dispatching = nullptr;

}  // namespace

TcpSink::~TcpSink() {
  if (!closed_ && fd_ >= 0) ::close(fd_);
}

void TcpSink::write_line(const std::string& line) {
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
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 2);
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
    conn->sink = std::make_shared<TcpSink>(this, fd);
    conns_.push_back(std::move(conn));
    ++conns_opened_;
  }
}

void EventLoop::read_ready(Conn& conn) {
  char chunk[16384];
  for (;;) {
    ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      bytes_in_ += static_cast<std::uint64_t>(n);
      conn.in.append(chunk, static_cast<size_t>(n));
      if (conn.in.size() > kMaxLineBytes) {
        conn.dead = true;
        return;
      }
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.dead = true;
    return;
  }
  size_t start = 0;
  tl_dispatching = this;  // step() flushes this conn right after
  for (size_t nl = conn.in.find('\n', start); nl != std::string::npos;
       nl = conn.in.find('\n', start)) {
    std::string line = conn.in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && admit_lines_ && on_line_) on_line_(line, conn.sink);
  }
  tl_dispatching = nullptr;
  conn.in.erase(0, start);
}

void EventLoop::flush(Conn& conn) {
  TcpSink& sink = *conn.sink;
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
