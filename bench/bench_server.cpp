// Server load harness for the lmre serve subsystem.  Five sections:
//
//   unix_pool      the original socket generator: worker pools (1, 4, 8)
//                  driven cold then warm over a Unix-domain socket;
//                  throughput, client-side p50/p95/p99, hit rates, and
//                  warm p99 as a multiple of the single-request floor.
//   shard_scaling  the sharded ResultCache replayed directly: a warm
//                  mixed-kind key set with real serve payloads, hammered
//                  by 8 threads, shards=1 (one global mutex) vs
//                  shards=16.  Gate: sharded throughput >= 2x the
//                  single-mutex baseline -- armed only on hosts with
//                  >= 4 cores, since on a single-core machine sharding
//                  cannot buy wall-clock parallelism to measure.
//   tcp_load       end-to-end TCP: serve_tcp with 8 workers under a
//                  poll-multiplexed client driving ~1000 concurrent
//                  connections of warm mixed-kind requests (analyze /
//                  symbolic / mrc / verify); throughput, tail latency,
//                  shed rate.
//   coalesce       N connections firing the SAME heavy cold request at
//                  once: single-flight must compute exactly once, answer
//                  every connection byte-identically, and count N-1
//                  coalesced responses.
//   overload       workers=1, queue_depth=4, distinct cold requests from
//                  64 connections: the queue must shed (overloaded) yet
//                  answer every line and keep serving afterwards.
//
// Writes BENCH_server.json (table + per-section stats + gate verdicts)
// into the current directory and exits non-zero if any armed gate fails.
// `--check` runs the same sections at reduced scale as a fast regression
// gate for scripts/tier1.sh.

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "codes/extra_kernels.h"
#include "codes/kernels.h"
#include "ir/parser.h"
#include "runtime/session.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "support/json.h"
#include "support/text.h"

using namespace lmre;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

std::string request_json(const std::string& id, const std::string& kind,
                         const std::string& source) {
  Json req = Json::object();
  req.set("id", id);
  req.set("kind", kind);
  req.set("source", source);
  return req.dump(0);
}

std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines;
  for (auto& e : codes::figure2_suite()) {
    lines.push_back(request_json(e.name, "full", to_dsl(e.nest)));
  }
  for (auto& [name, nest] : codes::extra_suite()) {
    lines.push_back(request_json(name, "full", to_dsl(nest)));
  }
  return lines;
}

// The mixed-kind fleet workload: every corpus nest through the four
// serve-heavy request kinds.  Used both as TCP traffic and -- via the
// session below -- as real (key, payload) pairs for the cache replay.
struct MixedRequest {
  std::string line;               // wire request
  AnalysisRequest::Kind kind;     // same request for a direct session
  std::string source;
};

std::vector<MixedRequest> mixed_kind_requests() {
  const std::pair<const char*, AnalysisRequest::Kind> kinds[] = {
      {"analyze", AnalysisRequest::Kind::kAnalyze},
      {"symbolic", AnalysisRequest::Kind::kSymbolic},
      {"mrc", AnalysisRequest::Kind::kMrc},
      {"verify", AnalysisRequest::Kind::kVerify},
  };
  std::vector<std::pair<std::string, std::string>> nests;
  for (auto& e : codes::figure2_suite()) nests.emplace_back(e.name, to_dsl(e.nest));
  for (auto& [name, nest] : codes::extra_suite()) {
    nests.emplace_back(name, to_dsl(nest));
  }
  std::vector<MixedRequest> reqs;
  for (auto& [name, source] : nests) {
    for (auto& [kname, kenum] : kinds) {
      reqs.push_back(
          {request_json(name + "/" + kname, kname, source), kenum, source});
    }
  }
  return reqs;
}

// ---------------------------------------------------------------------------
// Unix-socket client (persistent connection, one outstanding request).

class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(const std::string& path) {
    fd_ = unix_connect(path);
    return fd_ >= 0;
  }

  /// Sends `line`, blocks for the matching response line.
  bool request(const std::string& line) {
    if (fd_ < 0) return false;
    std::string framed = line + '\n';
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    buffer_.erase(0, buffer_.find('\n') + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

struct PassStats {
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double hit_rate = 0.0;
  long requests = 0;
};

Json pass_json(const PassStats& s) {
  return Json::object()
      .set("requests", static_cast<Int>(s.requests))
      .set("wall_ms", s.wall_ms)
      .set("throughput_rps", s.throughput_rps)
      .set("p50_ms", s.p50)
      .set("p95_ms", s.p95)
      .set("p99_ms", s.p99)
      .set("hit_rate", s.hit_rate);
}

// Drives `lines` (repeated `repeat` times) from `clients` threads over
// persistent Unix connections; latencies are client-side wall times.
PassStats run_pass(const std::string& path,
                   const std::vector<std::string>& lines, int clients,
                   int repeat, const ResultCache& cache) {
  const Int hits0 = cache.hits(), misses0 = cache.misses();
  std::vector<std::string> work;
  for (int r = 0; r < repeat; ++r) {
    work.insert(work.end(), lines.begin(), lines.end());
  }
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(path)) return;
      for (size_t i = static_cast<size_t>(c); i < work.size();
           i += static_cast<size_t>(clients)) {
        auto r0 = std::chrono::steady_clock::now();
        if (client.request(work[i])) {
          latencies[static_cast<size_t>(c)].push_back(ms_since(r0));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  PassStats s;
  s.wall_ms = ms_since(t0);
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  s.requests = static_cast<long>(all.size());
  s.throughput_rps =
      s.wall_ms > 0 ? 1000.0 * static_cast<double>(all.size()) / s.wall_ms
                    : 0.0;
  s.p50 = quantile(all, 0.50);
  s.p95 = quantile(all, 0.95);
  s.p99 = quantile(all, 0.99);
  const Int dh = (cache.hits() - hits0), dm = (cache.misses() - misses0);
  s.hit_rate = dh + dm > 0
                   ? static_cast<double>(dh) / static_cast<double>(dh + dm)
                   : 0.0;
  return s;
}

// ---------------------------------------------------------------------------
// Poll-multiplexed TCP driver: one thread, N concurrent connections, one
// outstanding request per connection (pipelining would blur latency
// attribution).  Each connection walks its own schedule of request lines.

struct TcpLoad {
  long requests = 0;   ///< lines scheduled across all connections
  long answered = 0;   ///< response lines received
  long connected = 0;  ///< connections that reached the server
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Json tcp_load_json(const TcpLoad& l) {
  return Json::object()
      .set("connections", static_cast<Int>(l.connected))
      .set("requests", static_cast<Int>(l.requests))
      .set("answered", static_cast<Int>(l.answered))
      .set("wall_ms", l.wall_ms)
      .set("throughput_rps", l.throughput_rps)
      .set("p50_ms", l.p50)
      .set("p95_ms", l.p95)
      .set("p99_ms", l.p99);
}

/// Runs `schedules[i]` over its own connection to 127.0.0.1:`port`.  When
/// `capture` is non-null, every response line is appended per connection
/// (used by the coalescing section's byte-identity check).
TcpLoad drive_tcp(int port, const std::vector<std::vector<std::string>>& schedules,
                  std::vector<std::vector<std::string>>* capture = nullptr) {
  struct Conn {
    int fd = -1;
    std::deque<std::string> pending;  // unsent request lines
    std::string out;                  // current line, framed
    size_t out_pos = 0;
    std::string in;
    bool awaiting = false;
    std::chrono::steady_clock::time_point sent_at;
  };

  TcpLoad load;
  std::vector<Conn> conns(schedules.size());
  if (capture) capture->assign(schedules.size(), {});
  for (size_t i = 0; i < schedules.size(); ++i) {
    load.requests += static_cast<long>(schedules[i].size());
    std::string err;
    int fd = tcp_connect("127.0.0.1", port, &err);
    if (fd < 0) continue;
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    conns[i].fd = fd;
    for (auto& line : schedules[i]) conns[i].pending.push_back(line + '\n');
    load.connected += 1;
  }

  auto stage_next = [](Conn& c) {
    c.out = std::move(c.pending.front());
    c.pending.pop_front();
    c.out_pos = 0;
    c.awaiting = true;
    c.sent_at = std::chrono::steady_clock::now();
  };
  for (auto& c : conns) {
    if (c.fd >= 0 && !c.pending.empty()) stage_next(c);
  }

  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(load.requests));
  auto t0 = std::chrono::steady_clock::now();
  const double kDeadlineMs = 120000.0;  // whole-run safety net

  long open = load.connected;
  std::vector<pollfd> fds;
  std::vector<size_t> owner;
  while (open > 0 && ms_since(t0) < kDeadlineMs) {
    fds.clear();
    owner.clear();
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0) continue;
      short events = POLLIN;
      if (c.out_pos < c.out.size()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
      owner.push_back(i);
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (size_t p = 0; p < fds.size(); ++p) {
      Conn& c = conns[owner[p]];
      if (c.fd < 0) continue;
      bool drop = (fds[p].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                  (fds[p].revents & POLLIN) == 0;
      if (fds[p].revents & POLLOUT) {
        while (c.out_pos < c.out.size()) {
          ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
          if (n > 0) {
            c.out_pos += static_cast<size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            drop = true;
            break;
          }
        }
      }
      if (fds[p].revents & POLLIN) {
        char chunk[16384];
        for (;;) {
          ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
          if (n > 0) {
            c.in.append(chunk, static_cast<size_t>(n));
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            drop = true;  // EOF or error with nothing outstanding
            break;
          }
        }
        size_t nl;
        while ((nl = c.in.find('\n')) != std::string::npos) {
          if (capture) (*capture)[owner[p]].push_back(c.in.substr(0, nl));
          c.in.erase(0, nl + 1);
          if (c.awaiting) {
            latencies.push_back(ms_since(c.sent_at));
            load.answered += 1;
            c.awaiting = false;
          }
          if (!c.pending.empty()) {
            stage_next(c);
          } else {
            drop = true;  // schedule complete
          }
        }
        if (!drop && c.awaiting) drop = false;
      }
      if (drop) {
        ::close(c.fd);
        c.fd = -1;
        open -= 1;
      }
    }
  }
  for (auto& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }

  load.wall_ms = ms_since(t0);
  load.throughput_rps =
      load.wall_ms > 0
          ? 1000.0 * static_cast<double>(load.answered) / load.wall_ms
          : 0.0;
  load.p50 = quantile(latencies, 0.50);
  load.p95 = quantile(latencies, 0.95);
  load.p99 = quantile(latencies, 0.99);
  return load;
}

/// Starts serve_tcp on an ephemeral port, runs `body(port)`, then drains.
/// Returns false if the listener never came up.
bool with_tcp_server(const ServerOptions& opts,
                     const std::function<void(AnalysisServer&, int)>& body) {
  AnalysisServer server(opts);
  std::thread serving([&] { server.serve_tcp("127.0.0.1", 0); });
  int port = -1;
  for (int i = 0; i < 1000 && port < 0; ++i) {
    port = server.tcp_port();
    if (port < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (port >= 0) body(server, port);
  server.request_stop();
  serving.join();
  return port >= 0;
}

// ---------------------------------------------------------------------------

struct Gate {
  std::string name;
  bool pass = false;
  bool armed = true;  ///< false: recorded but not enforced (with reason)
  std::string detail;
};

Json gates_json(const std::vector<Gate>& gates) {
  Json arr = Json::array();
  for (const Gate& g : gates) {
    arr.push(Json::object()
                 .set("name", g.name)
                 .set("pass", g.pass)
                 .set("armed", g.armed)
                 .set("detail", g.detail));
  }
  return arr;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") check = true;
  }
  // Headroom for the 2x (client + server) fd fan-out of the TCP section.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &nofile);
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int kTcpConns = check ? 200 : 1000;
  const int kCoalesceConns = check ? 32 : 64;
  const int kWarmRepeat = check ? 6 : 24;
  const int kReplayRounds = check ? 200 : 800;

  std::vector<Gate> gates;
  std::vector<std::string> lines = corpus_lines();
  std::vector<MixedRequest> mixed = mixed_kind_requests();
  Json doc = Json::object();
  doc.set("mode", check ? "check" : "full");
  doc.set("host_cores", static_cast<Int>(cores));
  doc.set("corpus_files", static_cast<Int>(lines.size()));
  doc.set("mixed_kind_requests", static_cast<Int>(mixed.size()));

  // ------------------------------------------------------------------
  // Section 1: unix_pool -- the original worker-pool socket generator.
  std::cout << "=== lmre serve load harness ("
            << (check ? "check" : "full") << " mode, " << cores
            << " core(s)) ===\n\n[1/5] unix_pool\n";
  {
    TextTable t;
    t.header({"workers", "pass", "req", "rps", "p50 ms", "p95 ms", "p99 ms",
              "hit rate"});
    Json configs = Json::array();
    bool ok = true;
    const int kClients = 4;
    for (int workers : {1, 4, 8}) {
      std::string path = "bench_server_" + std::to_string(workers) + ".sock";
      ::unlink(path.c_str());
      ServerOptions opts;
      opts.workers = workers;
      opts.queue_depth = 64;
      opts.session.cache_shards = 8;
      AnalysisServer server(opts);
      std::thread serving([&] { server.serve_socket(path); });
      {
        Client probe;  // waits for the listener; pre-computes lines[0]
        for (int i = 0; i < 500 && !probe.connect(path); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        probe.request(lines[0]);
      }

      PassStats cold = run_pass(path, lines, kClients, 1, server.cache());
      PassStats warm =
          run_pass(path, lines, kClients, kWarmRepeat, server.cache());

      // Unloaded warm single-request p99: the floor the loaded warm tail
      // is compared against.
      double single_ms = 0.0;
      {
        Client solo;
        if (solo.connect(path)) {
          std::vector<double> singles;
          for (int i = 0; i < 200; ++i) {
            auto s0 = std::chrono::steady_clock::now();
            if (solo.request(lines[static_cast<size_t>(i) % lines.size()])) {
              singles.push_back(ms_since(s0));
            }
          }
          single_ms = quantile(singles, 0.99);
        }
      }
      double p99_over_single = single_ms > 0 ? warm.p99 / single_ms : 0.0;

      server.request_stop();
      serving.join();
      ::unlink(path.c_str());

      t.row({std::to_string(workers), "cold", std::to_string(cold.requests),
             fmt(cold.throughput_rps), fmt(cold.p50), fmt(cold.p95),
             fmt(cold.p99), fmt(cold.hit_rate)});
      t.row({std::to_string(workers), "warm", std::to_string(warm.requests),
             fmt(warm.throughput_rps), fmt(warm.p50), fmt(warm.p95),
             fmt(warm.p99), fmt(warm.hit_rate)});

      ok = ok && cold.requests == static_cast<long>(lines.size()) &&
           warm.requests == static_cast<long>(lines.size()) * kWarmRepeat &&
           warm.hit_rate == 1.0;

      configs.push(Json::object()
                       .set("workers", workers)
                       .set("queue_depth", static_cast<Int>(opts.queue_depth))
                       .set("clients", kClients)
                       .set("cold", pass_json(cold))
                       .set("warm", pass_json(warm))
                       .set("warm_single_ms", single_ms)
                       .set("p99_over_single", p99_over_single));
    }
    std::cout << t.render();
    doc.set("unix_pool", std::move(configs));
    gates.push_back({"unix_pool_complete", ok, true,
                     ok ? "every pass answered every request, warm all hits"
                        : "lost requests or cold entries in the warm pass"});
  }

  // ------------------------------------------------------------------
  // Section 2: shard_scaling -- the cache replayed directly, 8 threads.
  std::cout << "\n[2/5] shard_scaling\n";
  {
    // Real keys and payloads: the exact (request_key, payload) pairs the
    // serve cache would hold after a warm mixed-kind pass.
    AnalysisSession session(SessionOptions{});
    std::vector<std::pair<std::uint64_t, CachedEntry>> entries;
    for (const MixedRequest& r : mixed) {
      AnalysisRequest req(r.source, "<bench>", r.kind);
      AnalysisResult res = session.run(req);
      entries.emplace_back(
          session.request_key(req),
          CachedEntry{static_cast<int>(res.status), res.payload});
    }

    const int kThreads = 8;
    double rps[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      ResultCacheConfig cfg;
      cfg.capacity = entries.size() * 2;
      cfg.shards = pass == 0 ? 1 : 16;
      ResultCache cache(cfg);
      for (auto& [key, entry] : entries) cache.put(key, entry);

      auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          // Thread-specific stride: heavy overlap, different orders.
          for (int r = 0; r < kReplayRounds; ++r) {
            for (size_t i = 0; i < entries.size(); ++i) {
              size_t at = (i * static_cast<size_t>(2 * t + 1) +
                           static_cast<size_t>(t)) %
                          entries.size();
              cache.get(entries[at].first);
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      double wall = ms_since(t0);
      double probes = static_cast<double>(kThreads) * kReplayRounds *
                      static_cast<double>(entries.size());
      rps[pass] = wall > 0 ? 1000.0 * probes / wall : 0.0;
    }
    double ratio = rps[0] > 0 ? rps[1] / rps[0] : 0.0;
    std::cout << "  shards=1:  " << fmt(rps[0] / 1e6) << " Mops/s\n"
              << "  shards=16: " << fmt(rps[1] / 1e6) << " Mops/s  ("
              << fmt(ratio) << "x)\n";

    doc.set("shard_scaling",
            Json::object()
                .set("threads", kThreads)
                .set("entries", static_cast<Int>(entries.size()))
                .set("replay_rounds", kReplayRounds)
                .set("single_mutex_ops_per_s", rps[0])
                .set("sharded16_ops_per_s", rps[1])
                .set("speedup", ratio));
    const bool armed = cores >= 4;
    gates.push_back(
        {"shard_scaling_2x", ratio >= 2.0, armed,
         armed ? fmt(ratio) + "x sharded over single mutex (need >= 2.0x)"
               : "not armed: " + std::to_string(cores) +
                     " core(s); sharding cannot show wall-clock parallelism "
                     "below 4 cores (ratio recorded: " +
                     fmt(ratio) + "x)"});
  }

  // ------------------------------------------------------------------
  // Section 3: tcp_load -- 1000-connection mixed-kind warm load.
  std::cout << "\n[3/5] tcp_load (" << kTcpConns << " connections)\n";
  {
    ServerOptions opts;
    opts.workers = 8;
    opts.queue_depth = 4096;
    opts.session.cache_shards = 16;
    TcpLoad load;
    Int shed = 0, completed = 0;
    bool up = with_tcp_server(opts, [&](AnalysisServer& server, int port) {
      // Warm the cache through the wire first (single connection), so the
      // measured storm is the steady-state fleet shape: all hits.
      std::vector<std::vector<std::string>> warmup(1);
      for (const MixedRequest& r : mixed) warmup[0].push_back(r.line);
      drive_tcp(port, warmup);

      std::vector<std::vector<std::string>> schedules(
          static_cast<size_t>(kTcpConns));
      for (size_t i = 0; i < schedules.size(); ++i) {
        schedules[i].push_back(mixed[i % mixed.size()].line);
        schedules[i].push_back(mixed[(i + 7) % mixed.size()].line);
      }
      load = drive_tcp(port, schedules);
      shed = server.metrics().counter("serve.overloaded");
      completed = server.metrics().counter("serve.completed");
    });
    double shed_rate =
        load.requests > 0
            ? static_cast<double>(shed) / static_cast<double>(load.requests)
            : 0.0;
    std::cout << "  " << load.connected << " conns, " << load.answered << "/"
              << load.requests << " answered, " << fmt(load.throughput_rps)
              << " rps, p50 " << fmt(load.p50) << " ms, p95 " << fmt(load.p95)
              << " ms, p99 " << fmt(load.p99) << " ms, shed " << shed << "\n";

    doc.set("tcp_load", tcp_load_json(load)
                            .set("workers", opts.workers)
                            .set("queue_depth",
                                 static_cast<Int>(opts.queue_depth))
                            .set("shed", shed)
                            .set("shed_rate", shed_rate)
                            .set("server_completed", completed));
    bool ok = up && load.connected == kTcpConns &&
              load.answered == load.requests && load.p99 > 0.0;
    gates.push_back(
        {"tcp_load_all_answered", ok, true,
         std::to_string(load.answered) + "/" + std::to_string(load.requests) +
             " answered over " + std::to_string(load.connected) +
             " connections, p99 " + fmt(load.p99) + " ms"});
  }

  // ------------------------------------------------------------------
  // Section 4: coalesce -- N identical cold requests, one computation.
  std::cout << "\n[4/5] coalesce (" << kCoalesceConns
            << " identical cold requests)\n";
  {
    // Heavy enough (3-deep nest, full pipeline with optimize search) that
    // every connection is admitted while the leader is still computing.
    const std::string heavy =
        "array C[28][28];\narray A[28][28];\narray B[28][28];\n"
        "for i = 1 to 28\n  for j = 1 to 28\n    for k = 1 to 28\n"
        "      {\n        C[i][j] = C[i][j] + A[i][k] + B[k][j];\n      }\n";
    const std::string line = request_json("hot", "full", heavy);

    ServerOptions opts;
    opts.workers = 2;
    opts.queue_depth = static_cast<size_t>(kCoalesceConns) + 8;
    TcpLoad load;
    Int computed = 0, total = 0, coalesced = 0;
    bool identical = false;
    bool up = with_tcp_server(opts, [&](AnalysisServer& server, int port) {
      std::vector<std::vector<std::string>> schedules(
          static_cast<size_t>(kCoalesceConns), {line});
      std::vector<std::vector<std::string>> responses;
      load = drive_tcp(port, schedules, &responses);
      computed = server.metrics().counter("runs.computed");
      total = server.metrics().counter("runs.total");
      coalesced = server.metrics().counter("serve.coalesced");
      identical = !responses.empty() && !responses[0].empty();
      for (auto& r : responses) {
        identical = identical && r.size() == 1 && r[0] == responses[0][0];
      }
    });
    std::cout << "  computed " << computed << " (runs.total " << total
              << "), coalesced " << coalesced << ", byte-identical: "
              << (identical ? "yes" : "NO") << "\n";

    doc.set("coalesce", Json::object()
                            .set("connections", static_cast<Int>(kCoalesceConns))
                            .set("answered", static_cast<Int>(load.answered))
                            .set("runs_computed", computed)
                            .set("runs_total", total)
                            .set("coalesced_responses", coalesced)
                            .set("byte_identical", identical)
                            .set("wall_ms", load.wall_ms));
    bool ok = up && computed == 1 &&
              coalesced == static_cast<Int>(kCoalesceConns - 1) &&
              load.answered == kCoalesceConns && identical;
    gates.push_back(
        {"coalesce_single_compute", ok, true,
         std::to_string(computed) + " computation(s) for " +
             std::to_string(kCoalesceConns) + " identical requests, " +
             std::to_string(coalesced) + " coalesced"});
  }

  // ------------------------------------------------------------------
  // Section 5: overload -- a tiny queue must shed, answer, and survive.
  std::cout << "\n[5/5] overload (workers=1, queue_depth=4)\n";
  {
    ServerOptions opts;
    opts.workers = 1;
    opts.queue_depth = 4;
    opts.coalesce = false;  // distinct sources anyway; keep the path pure
    TcpLoad load;
    Int shed = 0;
    long followup_answered = 0;
    bool up = with_tcp_server(opts, [&](AnalysisServer& server, int port) {
      const int kStorm = 64;
      std::vector<std::vector<std::string>> schedules(
          static_cast<size_t>(kStorm));
      for (int i = 0; i < kStorm; ++i) {
        // Distinct cold sources: no cache or coalescing relief.
        std::string src = "array a[" + std::to_string(64 + i) +
                          "];\nfor i = 1 to " + std::to_string(63 + i) +
                          "\n  {\n    a[i] = a[i] + a[i + 1];\n  }\n";
        schedules[static_cast<size_t>(i)].push_back(
            request_json("s" + std::to_string(i), "analyze", src));
      }
      load = drive_tcp(port, schedules);
      shed = server.metrics().counter("serve.overloaded");
      // The server must still serve after the storm.
      std::vector<std::vector<std::string>> after(1);
      after[0].push_back(lines[0]);
      followup_answered = drive_tcp(port, after).answered;
    });
    double shed_rate =
        load.requests > 0
            ? static_cast<double>(shed) / static_cast<double>(load.requests)
            : 0.0;
    std::cout << "  " << load.answered << "/" << load.requests
              << " answered, " << shed << " shed ("
              << fmt(100.0 * shed_rate) << "%), follow-up answered: "
              << (followup_answered == 1 ? "yes" : "NO") << "\n";

    doc.set("overload", Json::object()
                            .set("requests", static_cast<Int>(load.requests))
                            .set("answered", static_cast<Int>(load.answered))
                            .set("shed", shed)
                            .set("shed_rate", shed_rate)
                            .set("followup_answered",
                                 followup_answered == 1));
    bool ok = up && shed > 0 && load.answered == load.requests &&
              followup_answered == 1;
    gates.push_back({"overload_sheds_and_survives", ok, true,
                     std::to_string(shed) + " of " +
                         std::to_string(load.requests) +
                         " shed, every line answered, server kept serving"});
  }

  // ------------------------------------------------------------------
  doc.set("gates", gates_json(gates));
  bool all_pass = true;
  std::cout << "\ngates:\n";
  for (const Gate& g : gates) {
    std::cout << "  " << (g.pass ? "PASS" : (g.armed ? "FAIL" : "skip"))
              << "  " << g.name << " -- " << g.detail << "\n";
    if (g.armed && !g.pass) all_pass = false;
  }

  std::ofstream out("BENCH_server.json", std::ios::trunc);
  out << json_envelope("bench-server", std::move(doc)).dump(2) << '\n';
  std::cout << "wrote BENCH_server.json\n";
  return all_pass ? 0 : 1;
}
