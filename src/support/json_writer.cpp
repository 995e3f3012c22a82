#include "support/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/error.h"

namespace lmre {

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // start of the clean run not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
#ifndef NDEBUG
  ensure(((objects_ >> (depth_ - 1)) & 1) == 0,
         "JsonWriter: object member without a key");
#endif
  comma();
}

void JsonWriter::comma() {
  const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
  if (empty_ & bit) {
    empty_ &= ~bit;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::open(char bracket, bool object) {
  separate();
  ensure(depth_ < kMaxDepth, "JsonWriter: nesting too deep");
  const std::uint64_t bit = std::uint64_t{1} << depth_;
  empty_ |= bit;
  objects_ = object ? objects_ | bit : objects_ & ~bit;
#ifndef NDEBUG
  last_key_[depth_] = nullptr;
#endif
  ++depth_;
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket, bool object) {
  ensure(depth_ > 0 && !after_key_, "JsonWriter: unbalanced close");
  --depth_;
#ifndef NDEBUG
  ensure(((objects_ >> depth_) & 1) == static_cast<std::uint64_t>(object),
         "JsonWriter: mismatched close");
#else
  (void)object;
#endif
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::key(const char* k) {
  ensure(depth_ > 0, "JsonWriter: key outside an object");
#ifndef NDEBUG
  ensure(((objects_ >> (depth_ - 1)) & 1) && !after_key_,
         "JsonWriter: key outside an object");
  const char*& last = last_key_[depth_ - 1];
  ensure(last == nullptr || std::strcmp(last, k) < 0,
         "JsonWriter: object keys out of ascending order");
  last = k;
  for (const char* p = k; *p; ++p) {
    ensure(static_cast<unsigned char>(*p) >= 0x20 && *p != '"' && *p != '\\',
           "JsonWriter: key needs escaping");
  }
#endif
  comma();
  out_ += '"';
  out_ += k;
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(Int v) {
  separate();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  ensure(std::isfinite(v), "Json: non-finite double");
  separate();
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out_.append(buf, static_cast<size_t>(n));
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  out_ += '"';
  append_json_escaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_.append(json);
  return *this;
}

}  // namespace lmre
