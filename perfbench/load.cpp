// The benchmark's load client: drives a running `lmre serve --tcp` over
// up to nproc connections, closed- or open-loop, for a fixed window, then
// checks every served payload against in-process references.
//
// Prints one JSON object (see README.md, "Load client output").

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <poll.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "support/json.h"

namespace perf {

namespace {

using Clock = std::chrono::steady_clock;

/// A closed-loop request unanswered this long fails and ends its connection.
constexpr int kReplyTimeoutMs = 30000;

double seconds_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// One blocking TCP connection with a line reader.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    std::string framed = line + '\n';
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  int fd() const { return fd_; }

  /// Moves the next buffered complete line into *line, if there is one.
  bool next_line(std::string* line) {
    size_t nl = buf_.find('\n', scan_);
    if (nl == std::string::npos) {
      scan_ = buf_.size();
      return false;
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    scan_ = 0;
    return true;
  }

  /// One recv() into the buffer; false on EOF or error.
  bool receive() {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  /// Next complete line into *line, waiting at most `timeout_ms`; false on
  /// EOF, error or timeout.
  bool read_line(std::string* line, int timeout_ms) {
    while (!next_line(line)) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0 || !receive()) return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t scan_ = 0;
};

struct ProcSample {
  double cpu_ms = 0;   ///< utime + stime
  double hwm_kb = 0;   ///< VmHWM
};

ProcSample sample_process(int pid) {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
  size_t close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read server /proc stat");
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  double utime = 0, stime = 0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  s.cpu_ms = (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) s.hwm_kb = std::stod(line.substr(6));
  }
  return s;
}

double self_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec / 1e3; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Served payloads per template, checked for consistency as they arrive.
class Ledger {
 public:
  explicit Ledger(size_t templates)
      : served_(templates), status_(templates, -1), responses_(templates, 0) {}

  /// Records one response to template `t`; false when it is a failure
  /// (wire-only status, error body, or a payload differing from an
  /// earlier response to the same template).
  bool record(int t, const Response& r) {
    const size_t i = static_cast<size_t>(t);
    std::lock_guard<std::mutex> lock(stripes_[i % kStripes]);
    ++responses_[i];
    if (!r.ok || !r.is_result || r.status >= 5) {
      note("template " + std::to_string(t) + ": status " + std::to_string(r.status) +
           (r.is_result ? "" : " " + std::string(r.body.substr(0, 80))));
      return false;
    }
    if (served_[i].empty()) {
      served_[i].assign(r.body);
      status_[i] = r.status;
      return true;
    }
    if (served_[i] != r.body || status_[i] != r.status) {
      note("template " + std::to_string(t) + ": responses disagree");
      return false;
    }
    return true;
  }

  void note(const std::string& msg) {
    std::lock_guard<std::mutex> lock(notes_mu_);
    if (messages_.size() < 5) messages_.push_back(msg);
  }

  std::vector<std::string> served_;
  std::vector<int> status_;
  std::vector<long> responses_;
  std::vector<std::string> messages_;

 private:
  static constexpr size_t kStripes = 64;
  std::mutex stripes_[kStripes];
  std::mutex notes_mu_;
};

struct Sample {
  double at_s = 0;  ///< seconds after window start: completion (closed) or due (open)
  double latency_ms = 0;
};

/// Latency quantile q per one-second slice of the window (by Sample::at_s),
/// then the median over slices.  A stall of the host -- a descheduled vCPU
/// can freeze every thread for 10+ ms -- delays every request due during
/// it on the open loop; it then moves only its own slice, not the figure.
/// Slices with fewer than 100 samples (a window's ragged end) are skipped.
double median_slice_quantile(const std::vector<Sample>& samples, double q, size_t* slices) {
  std::vector<std::vector<double>> by_slice;
  for (const Sample& s : samples) {
    const size_t k = static_cast<size_t>(std::max(0.0, s.at_s));
    if (k >= by_slice.size()) by_slice.resize(k + 1);
    by_slice[k].push_back(s.latency_ms);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& v : by_slice) {
    if (v.size() >= 100) per_slice.push_back(quantile(v, q));
  }
  *slices = per_slice.size();
  return quantile(per_slice, 0.5);
}

struct LoadArgs {
  std::string requests, golden;
  int port = 0, pid = 0, conns = 1;
  double seconds = 1;
  long count = 0;  ///< > 0: closed loop stops after this many sends
};

/// Closed loop over `entries` (schedule indices or warm-up templates) on
/// every connection; each connection keeps one request in flight.
/// Appends to *samples when given; `wrap` cycles the list, else running
/// out ends the loop and sets *exhausted.
void closed_loop(const std::vector<Connection*>& conns,
                 const RequestFile& file, const std::vector<int>& entries,
                 bool wrap, Clock::time_point start, Clock::time_point end,
                 Ledger& ledger, std::atomic<uint64_t>& ids,
                 std::vector<Sample>* samples, std::atomic<long>* attempted,
                 std::atomic<long>* failed, bool* exhausted) {
  std::atomic<size_t> cursor{0};
  std::atomic<bool> ran_out{false};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (Connection* c : conns) {
    threads.emplace_back([&, c] {
      std::vector<Sample> local;
      std::string line;
      while (Clock::now() < end) {
        size_t n = cursor++;
        if (n >= entries.size() && !wrap) {
          ran_out = true;
          break;
        }
        int t = entries[n % entries.size()];
        uint64_t id = ids++;
        ++*attempted;
        Clock::time_point t0 = Clock::now();
        if (!c->send_line(request_line(file.templates[static_cast<size_t>(t)], id)) ||
            !c->read_line(&line, kReplyTimeoutMs)) {
          ++*failed;
          ledger.note("connection lost or no reply within 30 s");
          break;
        }
        Clock::time_point t1 = Clock::now();
        Response r = parse_response(line);
        if (!ledger.record(t, r) || r.id != id) ++*failed;
        local.push_back({seconds_since(start, t1),
                         std::chrono::duration<double, std::milli>(t1 - t0).count()});
      }
      std::lock_guard<std::mutex> lock(mu);
      if (samples) samples->insert(samples->end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  if (exhausted) *exhausted = ran_out;
}

}  // namespace

int run_load(const std::vector<std::string>& argv) {
  // The client is the measuring instrument: ask for a higher priority than
  // the server (inherited by every thread started below) so its send and
  // receive timestamps are not delayed behind server workers.  Without the
  // privilege this fails and the client runs at the default priority.
  ::setpriority(PRIO_PROCESS, 0, -10);
  LoadArgs a;
  for (size_t i = 0; i + 1 < argv.size(); i += 2) {
    const std::string& k = argv[i];
    const std::string& v = argv[i + 1];
    if (k == "--requests") a.requests = v;
    else if (k == "--golden") a.golden = v;
    else if (k == "--port") a.port = std::stoi(v);
    else if (k == "--pid") a.pid = std::stoi(v);
    else if (k == "--conns") a.conns = std::stoi(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--count") a.count = std::stol(v);
    else throw std::runtime_error("load: unknown flag " + k);
  }
  RequestFile file = read_request_file(a.requests);
  if (a.count > 0) {
    // Fixed-count pass: the first `count` entries, each sent once.
    if (file.mode == "open") throw std::runtime_error("load: --count needs a closed loop");
    file.schedule.resize(std::min(file.schedule.size(), static_cast<size_t>(a.count)));
    file.mode = "once";
    a.seconds = 1e6;
  }
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<Connection*> all;
  for (int i = 0; i < a.conns; ++i) {
    conns.push_back(std::make_unique<Connection>(a.port));
    all.push_back(conns.back().get());
  }

  Ledger ledger(file.templates.size());
  std::atomic<uint64_t> ids{1};
  std::atomic<long> warm_attempted{0}, warm_failed{0};
  Clock::time_point w0 = Clock::now();
  closed_loop(all, file, file.warmup, false, w0, Clock::time_point::max(), ledger, ids,
              nullptr, &warm_attempted, &warm_failed, nullptr);
  const double warmup_s = seconds_since(w0, Clock::now());

  std::vector<Sample> samples;
  std::vector<double> lags_ms;
  std::atomic<long> attempted{0}, failed{0};
  bool exhausted = false;
  const ProcSample before = sample_process(a.pid);
  const double client_before = self_cpu_ms();
  Clock::time_point start = Clock::now();
  Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.seconds));
  double elapsed_s = a.seconds;
  if (file.mode != "open") {
    closed_loop(all, file, file.schedule, file.mode == "closed", start, end, ledger, ids,
                &samples, &attempted, &failed, &exhausted);
    elapsed_s = seconds_since(start, Clock::now());
    if (a.count > 0) exhausted = false;  // running out is the point
  } else {
    // Open loop: one sender on the schedule, one reader for all connections.
    // Entry n goes out on connection n % conns with id n + base; latency
    // counts from its due time, so a stall delays every later request.
    const uint64_t base = ids.load();
    const size_t total = file.schedule.size();
    std::vector<Clock::time_point> due(total);
    std::vector<Clock::time_point> done(total, Clock::time_point::min());
    std::atomic<bool> sending{true};
    std::atomic<long> sent{0}, received{0};
    lags_ms.reserve(total);
    // One reader polls every connection: fewer client threads competing
    // with the server for the CPU than one reader per connection.
    std::thread reader([&] {
      std::vector<pollfd> fds;
      for (auto& conn : conns) fds.push_back(pollfd{conn->fd(), POLLIN, 0});
      std::string line;
      Clock::time_point deadline = Clock::time_point::max();
      while (true) {
        if (!sending.load() && deadline == Clock::time_point::max()) {
          deadline = Clock::now() + std::chrono::seconds(30);
        }
        if (!sending.load() && received.load() >= sent.load()) break;
        if (Clock::now() > deadline || ::poll(fds.data(), fds.size(), 50) < 0) break;
        for (size_t c = 0; c < fds.size(); ++c) {
          if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
          if (!conns[c]->receive()) {
            fds[c].fd = -1;  // closed: poll ignores it from now on
            continue;
          }
          Clock::time_point now = Clock::now();
          while (conns[c]->next_line(&line)) {
            Response r = parse_response(line);
            ++received;
            if (!r.ok || r.id < base || r.id - base >= total) {
              ++failed;
              continue;
            }
            size_t n = r.id - base;
            done[n] = now;
            if (!ledger.record(file.schedule[n], r)) ++failed;
          }
        }
      }
    });
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (size_t n = 0; n < total; ++n) {
      due[n] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(file.times[n]));
      if (due[n] >= end) break;
      std::this_thread::sleep_until(due[n]);
      lags_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due[n]).count());
      size_t c = n % conns.size();
      ++attempted;
      if (!conns[c]->send_line(request_line(file.templates[static_cast<size_t>(file.schedule[n])],
                                            base + n))) {
        ++failed;
        continue;
      }
      ++sent;
    }
    sending = false;
    reader.join();
    for (size_t n = 0; n < static_cast<size_t>(attempted.load()); ++n) {
      if (done[n] == Clock::time_point::min()) {
        continue;  // never answered: counted below
      }
      samples.push_back({seconds_since(start, due[n]),
                         std::chrono::duration<double, std::milli>(done[n] - due[n]).count()});
      elapsed_s = std::max(elapsed_s, seconds_since(start, done[n]));
    }
    long missing = attempted.load() - received.load();
    if (missing > 0) {
      failed += missing;
      ledger.note(std::to_string(missing) + " requests never answered");
    }
  }
  const ProcSample after = sample_process(a.pid);
  const double client_ms = self_cpu_ms() - client_before;
  conns.clear();

  Clock::time_point c0 = Clock::now();
  CheckReport check =
      check_references(file, ledger.served_, ledger.status_, a.golden,
                       static_cast<int>(std::max(1U, std::thread::hardware_concurrency())));
  const double check_s = seconds_since(c0, Clock::now());
  // Every response to a template whose payload failed the check fails.
  long mismatched_responses = 0;
  for (int t : check.bad_templates) mismatched_responses += ledger.responses_[static_cast<size_t>(t)];

  size_t slices = 0;
  const double p50 = median_slice_quantile(samples, 0.50, &slices);
  const double p99 = median_slice_quantile(samples, 0.99, &slices);
  long late = 0;
  double lag_sum = 0;
  for (double l : lags_ms) {
    late += l > 1.0 ? 1 : 0;
    lag_sum += l;
  }

  const long completed = static_cast<long>(samples.size());
  lmre::Json out = lmre::Json::object();
  out.set("mode", file.mode);
  out.set("attempted", static_cast<lmre::Int>(attempted.load()));
  out.set("completed", static_cast<lmre::Int>(completed));
  out.set("failed", static_cast<lmre::Int>(failed.load() + mismatched_responses +
                                            warm_failed.load()));
  out.set("warmup_requests", static_cast<lmre::Int>(warm_attempted.load()));
  out.set("warmup_s", warmup_s);
  out.set("exhausted", exhausted);
  out.set("elapsed_s", elapsed_s);
  out.set("throughput_rps", static_cast<double>(completed) / elapsed_s);
  out.set("latency_p50_ms", p50);
  out.set("latency_p99_ms", p99);
  out.set("latency_slices", static_cast<lmre::Int>(slices));
  out.set("server_cpu_ms", after.cpu_ms - before.cpu_ms);
  out.set("server_hwm_kb", after.hwm_kb);
  out.set("client_cpu_ms", client_ms);
  out.set("client_nice", ::getpriority(PRIO_PROCESS, 0));
  out.set("gen_lag_mean_ms", lags_ms.empty() ? 0.0 : lag_sum / static_cast<double>(lags_ms.size()));
  out.set("gen_lag_p99_ms", quantile(lags_ms, 0.99));  // sorts lags_ms
  out.set("gen_lag_max_ms", lags_ms.empty() ? 0.0 : lags_ms.back());
  out.set("gen_late_fraction",
          lags_ms.empty() ? 0.0 : static_cast<double>(late) / static_cast<double>(lags_ms.size()));
  out.set("checked", static_cast<lmre::Int>(check.checked));
  out.set("mismatches", static_cast<lmre::Int>(check.mismatches));
  out.set("check_s", check_s);
  lmre::Json msgs = lmre::Json::array();
  for (const std::string& m : ledger.messages_) msgs.push(m);
  for (const std::string& m : check.messages) msgs.push(m);
  out.set("messages", std::move(msgs));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perf
