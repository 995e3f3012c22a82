#pragma once

// Event-driven readiness loop for the TCP transport.
//
// One thread -- the one calling step() -- owns every socket: it accepts,
// reads, frames NDJSON lines, and flushes response bytes.  Readiness
// comes from poll(2) over non-blocking fds (the portable POSIX face of
// the epoll-style level-triggered model; the fd counts lmre serves are
// far below where poll's O(n) scan matters next to analysis cost).
// Replacing the old thread-per-connection readers, 10k idle connections
// now cost 10k pollfd entries instead of 10k blocked threads.
//
// Worker threads never see a socket.  Their half of a connection is the
// TcpSink: write_line appends to the connection's pending-output buffer
// under a small mutex and wakes the loop through a self-pipe (skipped
// when the loop thread itself answers a line it is dispatching -- the
// same step() flushes it); the loop flushes opportunistically, keeping whatever a full socket buffer or a
// slow client refuses (partial-write handling) until POLLOUT.  A client
// that vanished mid-response costs the loop an EPIPE errno on its own
// send -- it cannot kill or even block a worker, and the other
// connections' buffered responses are untouched.
//
// Connection lifetime: a connection is reaped when the client is gone
// (read error / reset), or when it has half-closed (EOF), its output has
// fully drained, AND no in-flight job still holds the sink (the sink's
// use_count is the in-flight reference count).  Reaping closes the fd
// and marks the sink closed so a late write_line from a finishing worker
// degrades to a silent drop, exactly like the Unix transport.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/server.h"

namespace lmre {

class EventLoop;

/// ResponseSink over one TCP connection.  Thread-safe; never blocks on
/// the network (see file comment).
class TcpSink : public ResponseSink {
 public:
  TcpSink(EventLoop* loop, int fd) : loop_(loop), fd_(fd) {}
  ~TcpSink() override;

  void write_line(const std::string& line) override;

 private:
  friend class EventLoop;

  std::mutex mu_;
  std::string out_;     ///< response bytes not yet accepted by the socket
  size_t out_pos_ = 0;  ///< sent prefix of out_ (compacted when drained)
  bool closed_ = false; ///< fd reaped (or loop gone): drop further writes
  EventLoop* loop_;
  int fd_;
};

class EventLoop {
 public:
  /// Called once per complete request line (without the newline), with
  /// the connection's sink.  The handler may answer synchronously or hand
  /// the sink to a worker; either way response bytes travel through
  /// TcpSink::write_line, and only through the sink it was given.
  using LineHandler = std::function<void(const std::string& line,
                                         const std::shared_ptr<ResponseSink>& sink)>;

  /// Takes ownership of the listening fd (closed on stop_accepting or
  /// destruction).
  EventLoop(int listen_fd, LineHandler on_line);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// One readiness round: waits up to timeout_ms for activity, then
  /// accepts, reads + frames + dispatches lines, flushes pending output,
  /// and reaps finished connections.  Returns promptly on wake().
  void step(int timeout_ms);

  /// Interrupts a blocked step() from any thread (self-pipe write;
  /// async-signal-safe).
  void wake();

  /// Closes the listening socket; existing connections live on.
  void stop_accepting();

  /// Half-closes every connection's read side and stops dispatching
  /// lines -- the drain barrier: nothing new is admitted, buffered
  /// responses still flush.  Loop-thread only.
  void shutdown_reads();

  /// True when every live connection's output buffer has fully drained.
  bool flushed() const;

  size_t connections() const { return conns_.size(); }
  std::uint64_t conns_opened() const { return conns_opened_; }
  std::uint64_t conns_closed() const { return conns_closed_; }
  /// Sends that could not take the whole buffer in one call (kept bytes
  /// were retried on POLLOUT).
  std::uint64_t partial_writes() const { return partial_writes_; }
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;  ///< bytes read but not yet framed into lines
    std::shared_ptr<TcpSink> sink;
    bool read_eof = false;  ///< client half-closed (or shutdown_reads)
    bool dead = false;      ///< client gone; reap unconditionally
  };

  void accept_ready();
  void read_ready(Conn& conn);
  void flush(Conn& conn);
  void reap();
  void close_conn(Conn& conn);

  int listen_fd_;
  int wake_pipe_[2] = {-1, -1};
  LineHandler on_line_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool admit_lines_ = true;
  std::uint64_t conns_opened_ = 0;
  std::uint64_t conns_closed_ = 0;
  std::uint64_t partial_writes_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

}  // namespace lmre
