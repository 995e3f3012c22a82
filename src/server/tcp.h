#pragma once

// Small socket helpers (TCP and Unix-domain) shared by the serve
// transports (server/epoll_loop), the CLI client (`lmre request`), the
// tests, and the load bench.  Everything here is plain blocking/bound-socket
// plumbing; the event loop flips accepted fds non-blocking itself.

#include <optional>
#include <string>

namespace lmre {

/// "HOST:PORT" -> parts.  Accepts numeric IPv4 dotted quads and the
/// literal "localhost"; port must be 0..65535 (0 = kernel-assigned, the
/// bound port is reported back by tcp_listen).  Returns nullopt, with a
/// human-readable reason in *error when given, for anything else.
struct HostPort {
  std::string host;
  int port = 0;
};
std::optional<HostPort> parse_host_port(const std::string& spec,
                                        std::string* error = nullptr);

/// Creates a listening TCP socket bound to host:port with SO_REUSEADDR
/// (fast restart across TIME_WAIT).  On success returns the fd and stores
/// the actually-bound port (interesting when port was 0) in *bound_port;
/// on failure returns -1 with the reason in *error when given.
int tcp_listen(const std::string& host, int port, int* bound_port,
               std::string* error = nullptr);

/// Connects a blocking TCP socket to host:port; -1 on failure.
int tcp_connect(const std::string& host, int port,
                std::string* error = nullptr);

/// Creates a listening Unix-domain stream socket at `path`, replacing a
/// stale socket file left by a dead server.  Returns the fd, or -1 with
/// the reason in *error when given (a path longer than sun_path holds is
/// refused up front, naming the limit).
int unix_listen(const std::string& path, std::string* error = nullptr);

/// Connects a blocking Unix-domain stream socket to `path`; -1 on failure.
int unix_connect(const std::string& path, std::string* error = nullptr);

}  // namespace lmre
