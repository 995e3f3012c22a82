#pragma once

// Shared pieces of the benchmark's C++ side: the request file written by
// workloads.py, response-line slicing, and the reference check every
// served payload must pass.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/server.h"

namespace perf {

/// The options `lmre serve --workers=N` runs with (every other flag at its
/// CLI default), so in-process servers and probes match the measured one.
lmre::ServerOptions serve_defaults(int workers);

/// One distinct request: its kind, the examples/loops file whose golden
/// `full` payload it must also match ("-" for none), and the request
/// line minus its leading `{"id":N,`.
struct Template {
  std::string kind;
  std::string golden;
  std::string json;
};

/// The whole request file (see workloads.py, Workload.write).
struct RequestFile {
  /// "closed": closed loop cycling the schedule; "once": closed loop
  /// sending each schedule entry at most once; "open": open loop on times.
  std::string mode;
  std::vector<Template> templates;
  std::vector<int> warmup;      ///< template indices sent once, untimed
  std::vector<int> schedule;    ///< template indices in send order
  std::vector<double> times;    ///< open loop: send offset of each entry, s
};

/// Reads a request file; throws std::runtime_error on malformed input.
RequestFile read_request_file(const std::string& path);

/// The request line for `t` under wire id `id` (no trailing newline).
std::string request_line(const Template& t, std::uint64_t id);

/// A response line cut into its parts without a JSON parse.  The server's
/// envelope is {"command":"serve","result":{"id":N,"result"|"error":BODY,
/// "status":S,"status_name":"..."},...} with sorted keys; anything else
/// leaves ok = false.
struct Response {
  bool ok = false;
  std::uint64_t id = 0;
  int status = -1;
  bool is_result = false;  ///< BODY is a payload (else an error message)
  std::string_view body;
};
Response parse_response(std::string_view line);

/// Outcome of checking served payloads against references.
struct CheckReport {
  int checked = 0;     ///< templates compared
  int mismatches = 0;  ///< templates whose served payload or status differed
  std::vector<int> bad_templates;     ///< their indices
  std::vector<std::string> messages;  ///< first few mismatch descriptions
};

/// For every template with a served payload (`served[i]` non-empty),
/// computes the reference with a single-threaded in-process
/// AnalysisSession and requires byte-equality of payload and status; an
/// analyze payload's distinct_exact/mws_exact must also equal the
/// independent hash-map engine (exact/reference.h), and a template with a
/// golden file must equal that file's payload in `golden_path`
/// (tests/golden/batch_loops.json, read only).  Runs on `threads` threads,
/// one session each.
CheckReport check_references(const RequestFile& file,
                             const std::vector<std::string>& served,
                             const std::vector<int>& served_status,
                             const std::string& golden_path, int threads);

/// `lmre_perf load` and `lmre_perf probe` (load.cpp, probe.cpp): flag
/// pairs after the subcommand; print one JSON object on stdout.
int run_load(const std::vector<std::string>& argv);
int run_probe(const std::vector<std::string>& argv);

/// Quantile q in [0, 1] of `v` (sorted in place), nearest-rank.
double quantile(std::vector<double>& v, double q);

}  // namespace perf
