#include "server/wire.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <utility>

#include "support/json.h"

namespace lmre {

const WireValue* WireValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

WireValue* WireValue::find(std::string_view key) {
  return const_cast<WireValue*>(std::as_const(*this).find(key));
}

namespace {

constexpr int kMaxDepth = 64;

// Recursive-descent reader over the input, decoding every value in place
// (into its parent's member or element slot).  With `keep_raw` every
// parsed value remembers the exact byte range it was decoded from
// (WireValue::raw); without it only a top-level object's "id" member does
// -- the one slice a request echoes -- so parse_request copies no other
// request bytes twice.
class Reader {
 public:
  Reader(std::string_view input, std::string* error, bool keep_raw)
      : input_(input), error_(error), keep_raw_(keep_raw) {}

  std::optional<WireValue> parse() {
    std::optional<WireValue> v(std::in_place);
    skip_ws();
    if (!parse_value(0, keep_raw_, *v)) return std::nullopt;
    skip_ws();
    if (pos_ != input_.size()) {
      fail("trailing bytes after JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const std::string& message) {
    if (error_ && error_->empty()) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (input_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(int depth, bool keep_raw, WireValue& v) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= input_.size()) return fail("unexpected end of input");
    size_t start = pos_;
    bool ok = false;
    switch (input_[pos_]) {
      case '{':
        ok = parse_object(depth, v);
        break;
      case '[':
        ok = parse_array(depth, v);
        break;
      case '"':
        v.kind = WireValue::Kind::kString;
        ok = parse_string_body(&v.text);
        break;
      case 't':
      case 'f':
        ok = parse_bool(v);
        break;
      case 'n':
        if (!literal("null")) return fail("invalid literal");
        ok = true;
        break;
      default:
        ok = parse_number(v);
        break;
    }
    if (ok && keep_raw) v.raw = std::string(input_.substr(start, pos_ - start));
    return ok;
  }

  bool parse_bool(WireValue& v) {
    v.kind = WireValue::Kind::kBool;
    if (literal("true")) {
      v.boolean = true;
      return true;
    }
    if (literal("false")) {
      v.boolean = false;
      return true;
    }
    return fail("invalid literal");
  }

  bool parse_number(WireValue& v) {
    size_t start = pos_;
    if (pos_ < input_.size() && input_[pos_] == '-') ++pos_;
    size_t digits = pos_;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) return fail("invalid number");
    if (pos_ < input_.size() && input_[pos_] == '.') {
      ++pos_;
      size_t frac = pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) return fail("invalid number");
    }
    if (pos_ < input_.size() && (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < input_.size() && (input_[pos_] == '+' || input_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) return fail("invalid number");
    }
    v.kind = WireValue::Kind::kNumber;
    const char* first = input_.data() + start;
    const char* last = input_.data() + pos_;
    // from_chars rounds exactly as strtod does; strtod still decides what
    // it alone defines -- overflow to inf, underflow to 0 or a denormal.
    auto [end, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc() || end != last) {
      v.number = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    if (!std::isfinite(v.number)) return fail("number out of range");
    return true;
  }

  void append_utf8(unsigned code, std::string* out) {
    if (code <= 0x7f) {
      out->push_back(static_cast<char>(code));
    } else if (code <= 0x7ff) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code <= 0xffff) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > input_.size()) return false;
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = input_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  // Bytes from pos_ to the closing quote: an upper bound on the decoded
  // length, since no escape decodes longer than it is written.  0 when
  // the string is unterminated (the decoder reports that).
  size_t quoted_extent() const {
    for (size_t q = input_.find('"', pos_); q != std::string_view::npos;
         q = input_.find('"', q + 1)) {
      size_t backslashes = 0;
      while (q - backslashes > pos_ && input_[q - backslashes - 1] == '\\') {
        ++backslashes;
      }
      if (backslashes % 2 == 0) return q - pos_;
    }
    return 0;
  }

  // Decodes one string literal into *out (which it replaces).
  bool parse_string_body(std::string* out) {
    if (!consume('"')) return fail("expected string");
    out->clear();
    out->reserve(quoted_extent());
    while (true) {
      // Append the run up to the next quote, backslash or control byte
      // in one go.
      size_t run = pos_;
      while (run < input_.size()) {
        const unsigned char b = static_cast<unsigned char>(input_[run]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++run;
      }
      out->append(input_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= input_.size()) return fail("unterminated string");
      char c = input_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("unescaped control character in string");
      if (pos_ >= input_.size()) return fail("unterminated escape");
      char e = input_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(&code)) return fail("invalid \\u escape");
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a low surrogate escape must follow.
            if (!literal("\\u")) return fail("unpaired surrogate");
            unsigned low = 0;
            if (!parse_hex4(&low) || low < 0xdc00 || low > 0xdfff) {
              return fail("unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            return fail("unpaired surrogate");
          }
          append_utf8(code, out);
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
  }

  bool parse_object(int depth, WireValue& v) {
    consume('{');
    v.kind = WireValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_body(&key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      skip_ws();
      // A request's id is echoed verbatim, so its slice is kept even
      // when no other is.
      const bool keep_raw = keep_raw_ || (depth == 0 && key == "id");
      if (v.members.empty()) v.members.reserve(8);  // a request's key count
      v.members.emplace_back(std::move(key), WireValue{});
      if (!parse_value(depth + 1, keep_raw, v.members.back().second)) {
        return false;
      }
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(int depth, WireValue& v) {
    consume('[');
    v.kind = WireValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      if (!parse_value(depth + 1, keep_raw_, v.elements.emplace_back())) {
        return false;
      }
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::string* error_;
  bool keep_raw_;
};

std::optional<WireValue> parse_json(std::string_view input,
                                    std::string* error, bool keep_raw) {
  if (error) error->clear();
  Reader reader(input, error, keep_raw);
  std::optional<WireValue> v = reader.parse();
  if (!v && error && error->empty()) *error = "malformed JSON";
  return v;
}

}  // namespace

std::optional<WireValue> parse_wire_json(std::string_view input,
                                         std::string* error) {
  return parse_json(input, error, /*keep_raw=*/true);
}

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kSuccess: return "success";
    case ServeStatus::kFailure: return "failure";
    case ServeStatus::kUsage: return "usage";
    case ServeStatus::kDiagnostics: return "diagnostics";
    case ServeStatus::kOverflow: return "overflow";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kTimeout: return "timeout";
    case ServeStatus::kBadRequest: return "bad_request";
  }
  return "unknown";
}

ServeStatus serve_status(ExitCode code) {
  return static_cast<ServeStatus>(to_int(code));
}

namespace {

/// Reads a string-valued member into *out; absent is fine, any other type
/// is a schema error.
bool read_string(const WireValue& obj, std::string_view key, std::string* out,
                 std::string* error) {
  const WireValue* v = obj.find(key);
  if (!v) return true;
  if (v->kind != WireValue::Kind::kString) {
    if (error) *error = "\"" + std::string(key) + "\" must be a string";
    return false;
  }
  *out = v->text;
  return true;
}

bool read_bool(const WireValue& obj, std::string_view key, bool* out,
               std::string* error) {
  const WireValue* v = obj.find(key);
  if (!v) return true;
  if (v->kind != WireValue::Kind::kBool) {
    if (error) *error = "\"" + std::string(key) + "\" must be a boolean";
    return false;
  }
  *out = v->boolean;
  return true;
}

}  // namespace

bool request_from_wire(WireValue& root, ServerRequest* req,
                       std::string* error) {
  *req = ServerRequest{};
  if (root.kind != WireValue::Kind::kObject) {
    if (error) *error = "request must be a JSON object";
    return false;
  }
  // Recover the id first so even schema errors can be correlated.
  if (const WireValue* id = root.find("id")) {
    switch (id->kind) {
      case WireValue::Kind::kString:
      case WireValue::Kind::kNumber:
      case WireValue::Kind::kNull:
        req->id_json = id->raw;
        break;
      default:
        if (error) *error = "\"id\" must be a string, number, or null";
        return false;
    }
  }
  if (const WireValue* version = root.find("schema_version")) {
    // Absent = v1 (the key predates versioned requests).  Anything in the
    // supported window parses; the future is an explicit refusal, not a
    // silent misread.
    double v = version->kind == WireValue::Kind::kNumber ? version->number : -1;
    if (v != static_cast<double>(static_cast<Int>(v)) ||
        v < static_cast<double>(kJsonSchemaVersionMin) ||
        v > static_cast<double>(kJsonSchemaVersion)) {
      if (error) {
        *error = "\"schema_version\" must be an integer in [" +
                 std::to_string(kJsonSchemaVersionMin) + ", " +
                 std::to_string(kJsonSchemaVersion) + "]";
      }
      return false;
    }
  }
  WireValue* source = root.find("source");
  if (!source || source->kind != WireValue::Kind::kString) {
    if (error) *error = "missing string field \"source\"";
    return false;
  }
  req->analysis.source = std::move(source->text);
  if (const WireValue* kind = root.find("kind")) {
    std::optional<AnalysisRequest::Kind> parsed =
        kind->kind == WireValue::Kind::kString
            ? kind_from_string(kind->text)
            : std::nullopt;
    if (!parsed) {
      if (error) *error = "\"kind\" must be one of " + kind_names_joined();
      return false;
    }
    req->analysis.set_kind(*parsed);
  }
  // v1 compatibility: the plan spec used to be a top-level key.  It only
  // ever applied to verify; options.plan (v2) wins when both are present.
  std::string plan;
  if (!read_string(root, "plan", &plan, error)) return false;
  if (const WireValue* options = root.find("options")) {
    if (options->kind != WireValue::Kind::kObject) {
      if (error) *error = "\"options\" must be an object";
      return false;
    }
    if (const WireValue* deadline = options->find("deadline_ms")) {
      if (deadline->kind != WireValue::Kind::kNumber ||
          deadline->number < 0) {
        if (error) *error = "\"deadline_ms\" must be a non-negative number";
        return false;
      }
      req->deadline_ms = deadline->number;
    }
    if (!read_string(*options, "plan", &plan, error)) return false;
    if (AnalysisRequest::Codegen* cg =
            std::get_if<AnalysisRequest::Codegen>(&req->analysis.options)) {
      if (!read_bool(*options, "run", &cg->run, error)) return false;
      if (!read_string(*options, "cc", &cg->cc, error)) return false;
    }
    if (AnalysisRequest::Optimize* op =
            std::get_if<AnalysisRequest::Optimize>(&req->analysis.options)) {
      if (!read_string(*options, "objective", &op->objective, error)) {
        return false;
      }
    }
    if (AnalysisRequest::Mrc* m =
            std::get_if<AnalysisRequest::Mrc>(&req->analysis.options)) {
      if (const WireValue* rate = options->find("sample_rate")) {
        if (rate->kind != WireValue::Kind::kNumber || !(rate->number > 0) ||
            rate->number > 1) {
          if (error) *error = "\"sample_rate\" must be a number in (0, 1]";
          return false;
        }
        m->sample_rate = rate->number;
      }
      if (const WireValue* caps = options->find("capacities")) {
        if (caps->kind != WireValue::Kind::kArray) {
          if (error) *error = "\"capacities\" must be an array of integers";
          return false;
        }
        for (const WireValue& c : caps->elements) {
          if (c.kind != WireValue::Kind::kNumber ||
              c.number != static_cast<double>(static_cast<Int>(c.number)) ||
              c.number < 0) {
            if (error) {
              *error = "\"capacities\" entries must be non-negative integers";
            }
            return false;
          }
          m->capacities.push_back(static_cast<Int>(c.number));
        }
      }
    }
    // Keys the kind does not define are ignored (forward compatibility).
  }
  if (AnalysisRequest::Verify* v =
          std::get_if<AnalysisRequest::Verify>(&req->analysis.options)) {
    v->plan = plan;
  } else if (AnalysisRequest::Codegen* cg =
                 std::get_if<AnalysisRequest::Codegen>(&req->analysis.options)) {
    cg->plan = plan;
  } else if (AnalysisRequest::Mrc* m =
                 std::get_if<AnalysisRequest::Mrc>(&req->analysis.options)) {
    m->plan = plan;
  }
  return true;
}

bool parse_request(const std::string& line, ServerRequest* req,
                   std::string* error) {
  std::optional<WireValue> root = parse_json(line, error, /*keep_raw=*/false);
  if (!root) {
    *req = ServerRequest{};
    return false;
  }
  return request_from_wire(*root, req, error);
}

namespace {

// The text json_envelope("serve", {id, status, status_name, <body_key>})
// .dump(0) produces, spliced directly: the keys are fixed and sorted
// ("error" < "id" < "result" < "status" < "status_name"), so only the
// id, the body and the status vary.
std::string serve_line(const std::string& id_json, ServeStatus status,
                       std::string_view body_key, std::string_view body_json) {
  static const std::string kTail =
      "\"},\"schema_version\":" + std::to_string(kJsonSchemaVersion) +
      ",\"tool\":\"lmre\"}";
  const bool body_first = body_key < "id";
  const char* name = to_string(status);
  std::string out;
  out.reserve(96 + id_json.size() + body_json.size());
  out += "{\"command\":\"serve\",\"result\":{";
  auto append_body = [&] {
    out += '"';
    out += body_key;
    out += "\":";
    out += body_json;
  };
  if (body_first) {
    append_body();
    out += ',';
  }
  out += "\"id\":";
  out += id_json;
  if (!body_first) {
    out += ',';
    append_body();
  }
  out += ",\"status\":";
  out += std::to_string(static_cast<int>(status));
  out += ",\"status_name\":\"";
  out += name;
  out += kTail;
  return out;
}

}  // namespace

std::string serve_response(const std::string& id_json, ServeStatus status,
                           const std::string& payload_json) {
  return serve_line(id_json, status, "result", payload_json);
}

std::string serve_error(const std::string& id_json, ServeStatus status,
                        const std::string& message) {
  return serve_line(id_json, status, "error",
                    "\"" + Json::escape(message) + "\"");
}

}  // namespace lmre
