#pragma once

// The serve wire protocol: newline-delimited JSON.
//
// Each request is one line holding a JSON object
//   {"id": <string|number>, "schema_version": 2,
//    "kind": "lint|analyze|optimize|full|symbolic|verify|codegen|mrc",
//    "source": "<DSL text>",
//    "options": {"deadline_ms": <number>,
//                "plan": "<plan spec>",          (verify, codegen, mrc)
//                "run": <bool>, "cc": "<path>",  (codegen)
//                "objective": "<spec>",          (optimize)
//                "sample_rate": <number>,        (mrc)
//                "capacities": [<number>...]}}   (mrc)
// The "options" object mixes wire-level knobs (deadline_ms) with the
// per-kind knobs of the typed AnalysisRequest; keys a kind does not
// define are ignored.  "schema_version" may be omitted (= v1) or any
// version in [kJsonSchemaVersionMin, kJsonSchemaVersion]; v1 requests
// carried the verify plan spec as a top-level "plan" key, which still
// parses (options.plan wins when both appear).
// Each response is one line holding the common versioned envelope
// ({schema_version, tool, command: "serve", result: ...}) whose result
// carries the echoed id, a wire status, and -- for computed requests --
// the exact payload `lmre batch` would embed for the same source and
// options.  The determinism contract extends to the wire: the payload is
// spliced byte-for-byte from the runtime's serialized result, never
// re-encoded.
//
// lmre otherwise only EMITS JSON (support/json.h has no parser); the
// reader here exists solely for the request side of this protocol.  It
// keeps, for every parsed value, the verbatim input slice (`raw`) so ids
// echo byte-identically and tests can extract response payloads without
// re-serializing them.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/session.h"
#include "support/error.h"

namespace lmre {

/// A parsed JSON value plus the verbatim input slice it came from.
struct WireValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< decoded string value (escapes resolved)
  std::vector<std::pair<std::string, WireValue>> members;  ///< objects, in input order
  std::vector<WireValue> elements;                         ///< arrays
  std::string raw;  ///< the exact input bytes of this value

  /// First member with `key` (objects only); nullptr when absent.
  const WireValue* find(std::string_view key) const;
  WireValue* find(std::string_view key);
};

/// Parses one complete JSON value (surrounding whitespace allowed,
/// nothing else).  Returns nullopt and sets *error on malformed input;
/// never throws.  Nesting is capped (64 levels) so hostile input cannot
/// blow the stack.
std::optional<WireValue> parse_wire_json(std::string_view input,
                                         std::string* error);

/// Statuses a serve response can carry.  0-4 mirror ExitCode (the payload
/// was computed, or recalled, with that status); 5-7 are wire-only: the
/// request never reached the pipeline.
enum class ServeStatus : int {
  kSuccess = 0,
  kFailure = 1,
  kUsage = 2,
  kDiagnostics = 3,
  kOverflow = 4,
  kOverloaded = 5,   ///< shed at admission: the bounded queue was full
  kTimeout = 6,      ///< deadline_ms elapsed before a result was delivered
  kBadRequest = 7,   ///< malformed request line (JSON or schema)
};

/// Stable lower-case name, e.g. "overloaded", "timeout".
const char* to_string(ServeStatus s);

/// The wire status for a computed result's exit code.
ServeStatus serve_status(ExitCode code);

/// One decoded request line: the typed AnalysisRequest it maps to (kind +
/// per-kind options already folded in; `file` is set by the server) plus
/// the wire-only envelope fields.
struct ServerRequest {
  std::string id_json = "null";  ///< raw JSON scalar, echoed verbatim
  AnalysisRequest analysis;      ///< source, kind and typed options
  double deadline_ms = 0.0;      ///< <= 0 means no deadline
};

/// Parses and validates one request line.  On failure returns false with a
/// message in *error; *req keeps any id that was readable so the error
/// response can still correlate.  Unknown option keys are ignored
/// (forward compatibility); unknown kinds and non-string sources are not.
/// The line is decoded once: the reader keeps no raw slice but the id's,
/// and the decoded source moves into *req.
bool parse_request(const std::string& line, ServerRequest* req,
                   std::string* error);

/// The validation half of parse_request, over a parsed document (from
/// parse_wire_json, or parse_request's lean parse): maps `root` onto *req,
/// moving the source text out of `root`.  Same contract as parse_request.
bool request_from_wire(WireValue& root, ServerRequest* req,
                       std::string* error);

/// A computed-result response line (no trailing newline): the envelope
/// around {id, status, status_name, result} with `payload_json` spliced
/// verbatim as the result.
std::string serve_response(const std::string& id_json, ServeStatus status,
                           const std::string& payload_json);

/// An error response line: {id, status, status_name, error: <message>}.
std::string serve_error(const std::string& id_json, ServeStatus status,
                        const std::string& message);

}  // namespace lmre
