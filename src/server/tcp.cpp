#include "server/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace lmre {

namespace {

void set_error(std::string* error, std::string message) {
  if (error) *error = std::move(message);
}

/// Resolves the textual host to an IPv4 address (no DNS: the serve
/// transport is for loopback and rack-local fleets, where numeric
/// addresses are the norm and a resolver dependency is pure liability).
bool resolve_ipv4(const std::string& host, in_addr* out, std::string* error) {
  std::string name = host.empty() ? "0.0.0.0" : host;
  if (name == "localhost") name = "127.0.0.1";
  if (::inet_pton(AF_INET, name.c_str(), out) == 1) return true;
  set_error(error, "unresolvable host '" + host +
                       "' (use a numeric IPv4 address or 'localhost')");
  return false;
}

/// A Unix-domain stream socket plus the address of `path` in *addr; -1
/// with the reason when the path does not fit sun_path with its NUL.
int unix_socket(const std::string& path, sockaddr_un* addr,
                std::string* error) {
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    set_error(error, "socket path is " + std::to_string(path.size()) +
                         " bytes, over the " +
                         std::to_string(sizeof(addr->sun_path) - 1) +
                         "-byte limit of a Unix-domain socket path");
    return -1;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) set_error(error, std::string("socket: ") + std::strerror(errno));
  return fd;
}

}  // namespace

std::optional<HostPort> parse_host_port(const std::string& spec,
                                        std::string* error) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    set_error(error, "expected HOST:PORT, got '" + spec + "'");
    return std::nullopt;
  }
  HostPort hp;
  hp.host = spec.substr(0, colon);
  const char* first = spec.data() + colon + 1;
  const char* last = spec.data() + spec.size();
  auto [ptr, ec] = std::from_chars(first, last, hp.port);
  if (ec != std::errc() || ptr != last || hp.port < 0 || hp.port > 65535) {
    set_error(error, "bad port in '" + spec + "' (want 0..65535)");
    return std::nullopt;
  }
  in_addr probe{};
  if (!resolve_ipv4(hp.host, &probe, error)) return std::nullopt;
  return hp;
}

int tcp_listen(const std::string& host, int port, int* bound_port,
               std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (!resolve_ipv4(host, &addr.sin_addr, error)) return -1;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    set_error(error, "bind " + host + ":" + std::to_string(port) + ": " +
                         std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 1024) < 0) {
    set_error(error, std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? ntohs(bound.sin_port)
                      : port;
  }
  return fd;
}

int tcp_connect(const std::string& host, int port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string target = host.empty() ? "127.0.0.1" : host;
  if (target == "0.0.0.0") target = "127.0.0.1";  // wildcard bind -> loopback
  if (!resolve_ipv4(target, &addr.sin_addr, error)) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    set_error(error, "connect " + host + ":" + std::to_string(port) + ": " +
                         std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

int unix_listen(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  int fd = unix_socket(path, &addr, error);
  if (fd < 0) return -1;
  ::unlink(path.c_str());  // replace a stale socket from a dead server
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    set_error(error, "bind " + path + ": " + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 1024) < 0) {
    set_error(error, std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

int unix_connect(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  int fd = unix_socket(path, &addr, error);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    set_error(error, "connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace lmre
