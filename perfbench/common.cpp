#include "common.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exact/reference.h"
#include "ir/parser.h"
#include "runtime/session.h"
#include "server/wire.h"
#include "tools/commands.h"

namespace perf {

lmre::ServerOptions serve_defaults(int workers) {
  // Mirrors cmd_serve's mapping from ServeCliOptions to ServerOptions.
  const lmre::tools::ServeCliOptions cli;
  lmre::ServerOptions opts;
  opts.workers = workers;
  opts.queue_depth = cli.queue_depth;
  opts.coalesce = cli.coalesce;
  opts.session.cache_shards = cli.cache_shards;
  opts.session.cache_ttl_seconds = cli.cache_ttl;
  opts.session.cache_byte_budget = cli.cache_bytes;
  return opts;
}

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t tab = line.find('\t'); tab != std::string::npos;
       tab = line.find('\t', start)) {
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  out.push_back(line.substr(start));
  return out;
}

int to_index(const std::string& s, size_t limit) {
  int v = -1;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size() || v < 0 ||
      static_cast<size_t>(v) >= limit) {
    throw std::runtime_error("request file: bad template index '" + s + "'");
  }
  return v;
}

bool consume(std::string_view& s, std::string_view prefix) {
  if (s.substr(0, prefix.size()) != prefix) return false;
  s.remove_prefix(prefix.size());
  return true;
}

// The (distinct_exact, mws_exact) pair of an analyze payload's "analysis"
// object; false when the payload has none.
bool analysis_exact(const std::string& payload, lmre::Int* distinct,
                    lmre::Int* mws) {
  std::string err;
  std::optional<lmre::WireValue> doc = lmre::parse_wire_json(payload, &err);
  if (!doc) return false;
  const lmre::WireValue* a = doc->find("analysis");
  if (!a) return false;
  const lmre::WireValue* d = a->find("distinct_exact");
  const lmre::WireValue* m = a->find("mws_exact");
  if (!d || !m) return false;
  *distinct = static_cast<lmre::Int>(d->number);
  *mws = static_cast<lmre::Int>(m->number);
  return true;
}

// file name -> raw payload text of tests/golden/batch_loops.json.
std::map<std::string, std::string> read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  std::optional<lmre::WireValue> doc = lmre::parse_wire_json(ss.str(), &err);
  const lmre::WireValue* result = doc ? doc->find("result") : nullptr;
  const lmre::WireValue* files = result ? result->find("files") : nullptr;
  if (!files) throw std::runtime_error("golden file has no result.files: " + path);
  std::map<std::string, std::string> out;
  for (const lmre::WireValue& f : files->elements) {
    const lmre::WireValue* name = f.find("file");
    const lmre::WireValue* payload = f.find("result");
    if (name && payload) out[name->text] = payload->raw;
  }
  return out;
}

}  // namespace

RequestFile read_request_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read request file " + path);
  RequestFile file;
  std::string line;
  if (!std::getline(in, line) || line.rfind("mode ", 0) != 0) {
    throw std::runtime_error("request file: missing mode line");
  }
  file.mode = line.substr(5);
  while (std::getline(in, line)) {
    std::vector<std::string> f = split_tabs(line);
    if (f[0] == "T" && f.size() == 4) {
      file.templates.push_back(Template{f[1], f[2], f[3]});
    } else if (f[0] == "W" && f.size() == 2) {
      file.warmup.push_back(to_index(f[1], file.templates.size()));
    } else if (f[0] == "S" && f.size() == 3) {
      file.schedule.push_back(to_index(f[1], file.templates.size()));
      file.times.push_back(std::stod(f[2]));
    } else {
      throw std::runtime_error("request file: bad line '" + line.substr(0, 40) + "'");
    }
  }
  if (file.schedule.empty()) throw std::runtime_error("request file: empty schedule");
  return file;
}

std::string request_line(const Template& t, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + t.json.substr(1);
}

Response parse_response(std::string_view line) {
  Response r;
  std::string_view s = line;
  if (!consume(s, "{\"command\":\"serve\",\"result\":{\"id\":")) return r;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), r.id);
  if (ec != std::errc()) return r;
  s.remove_prefix(static_cast<size_t>(p - s.data()));
  if (consume(s, ",\"result\":")) {
    r.is_result = true;
  } else if (!consume(s, ",\"error\":")) {
    return r;
  }
  size_t tail = s.rfind(",\"status\":");
  if (tail == std::string_view::npos) return r;
  r.body = s.substr(0, tail);
  std::string_view st = s.substr(tail + 10);
  auto [q, ec2] = std::from_chars(st.data(), st.data() + st.size(), r.status);
  r.ok = ec2 == std::errc();
  return r;
}

CheckReport check_references(const RequestFile& file,
                             const std::vector<std::string>& served,
                             const std::vector<int>& served_status,
                             const std::string& golden_path, int threads) {
  std::map<std::string, std::string> golden;
  bool need_golden = false;
  for (size_t i = 0; i < file.templates.size(); ++i) {
    if (!served[i].empty() && file.templates[i].golden != "-") need_golden = true;
  }
  if (need_golden) golden = read_golden(golden_path);

  CheckReport report;
  std::mutex mu;
  auto fail = [&](size_t i, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++report.mismatches;
    report.bad_templates.push_back(static_cast<int>(i));
    if (report.messages.size() < 5) {
      report.messages.push_back("template " + std::to_string(i) + " (" +
                                file.templates[i].kind + "): " + why);
    }
  };
  std::atomic<size_t> next{0};
  std::atomic<int> checked{0};
  auto worker = [&] {
    lmre::SessionOptions opts;
    opts.run.threads = 1;
    lmre::AnalysisSession session(opts);
    for (size_t i = next++; i < file.templates.size(); i = next++) {
      if (served[i].empty()) continue;
      ++checked;
      lmre::ServerRequest req;
      std::string err;
      if (!lmre::parse_request(request_line(file.templates[i], 0), &req, &err)) {
        fail(i, "request does not parse: " + err);
        continue;
      }
      req.analysis.file = "<serve>";
      lmre::AnalysisResult ref = session.run(req.analysis);
      const int ref_status = static_cast<int>(lmre::serve_status(ref.status));
      if (ref.payload != served[i] || ref_status != served_status[i]) {
        fail(i, "served payload/status differs from the in-process session");
        continue;
      }
      const Template& t = file.templates[i];
      if (t.golden != "-") {
        auto g = golden.find(t.golden);
        if (g == golden.end() || g->second != served[i]) {
          fail(i, "payload differs from golden " + t.golden);
          continue;
        }
      }
      lmre::Int distinct = 0, mws = 0;
      if (t.kind == "analyze" && analysis_exact(served[i], &distinct, &mws)) {
        try {
          lmre::Program program = lmre::parse_program(req.analysis.source);
          lmre::TraceStats hm = lmre::reference::simulate(program.phase_nest(0));
          if (hm.distinct_total != distinct || hm.mws_total != mws) {
            fail(i, "distinct_exact/mws_exact differ from the hash-map engine");
          }
        } catch (const std::exception& e) {
          fail(i, std::string("reference engine failed: ") + e.what());
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  report.checked = checked.load();
  return report;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perf
