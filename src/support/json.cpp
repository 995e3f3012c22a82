#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/error.h"
#include "support/json_writer.h"

namespace lmre {

Json Json::object() {
  Json j;
  j.value_ = std::make_shared<Object>();
  return j;
}

Json Json::array() {
  Json j;
  j.value_ = std::make_shared<Array>();
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.value_ = std::move(s);
  return j;
}

Json Json::number(Int v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::boolean(bool v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::raw(std::string json_text) {
  Json j;
  j.value_ = Raw{std::move(json_text)};
  return j;
}

bool Json::is_object() const {
  return std::holds_alternative<std::shared_ptr<Object>>(value_);
}

bool Json::is_array() const {
  return std::holds_alternative<std::shared_ptr<Array>>(value_);
}

Json& Json::set(const std::string& key, Json v) {
  require(is_object(), "Json::set on a non-object");
  (*std::get<std::shared_ptr<Object>>(value_))[key] = std::move(v);
  return *this;
}

Json& Json::set(const std::string& key, const std::string& v) {
  return set(key, Json::string(v));
}

Json& Json::set(const std::string& key, const char* v) {
  return set(key, Json::string(v));
}

Json& Json::set(const std::string& key, Int v) { return set(key, Json::number(v)); }

Json& Json::set(const std::string& key, double v) { return set(key, Json::number(v)); }

Json& Json::set(const std::string& key, bool v) { return set(key, Json::boolean(v)); }

Json& Json::push(Json v) {
  require(is_array(), "Json::push on a non-array");
  std::get<std::shared_ptr<Array>>(value_)->push_back(std::move(v));
  return *this;
}

Json& Json::push(const std::string& v) { return push(Json::string(v)); }

Json& Json::push(Int v) { return push(Json::number(v)); }

size_t Json::size() const {
  if (is_object()) return std::get<std::shared_ptr<Object>>(value_)->size();
  if (is_array()) return std::get<std::shared_ptr<Array>>(value_)->size();
  return 0;
}

std::string Json::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_escaped(out, s);
  return out;
}

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (std::holds_alternative<bool>(value_)) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (std::holds_alternative<Int>(value_)) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, std::get<Int>(value_));
    out.append(buf, res.ptr);
  } else if (std::holds_alternative<double>(value_)) {
    double v = std::get<double>(value_);
    ensure(std::isfinite(v), "Json: non-finite double");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  } else if (std::holds_alternative<std::string>(value_)) {
    out += '"';
    append_json_escaped(out, std::get<std::string>(value_));
    out += '"';
  } else if (std::holds_alternative<Raw>(value_)) {
    out += std::get<Raw>(value_).text;
  } else if (is_object()) {
    const Object& obj = *std::get<std::shared_ptr<Object>>(value_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      newline_indent(out, indent, depth + 1);
      out += '"';
      append_json_escaped(out, k);
      out += indent > 0 ? "\": " : "\":";
      v.dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += '}';
  } else {
    const Array& arr = *std::get<std::shared_ptr<Array>>(value_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const auto& v : arr) {
      if (!first) out += ',';
      first = false;
      newline_indent(out, indent, depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += ']';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json json_envelope(const std::string& command, Json result) {
  return Json::object()
      .set("schema_version", kJsonSchemaVersion)
      .set("tool", "lmre")
      .set("command", command)
      .set("result", std::move(result));
}

}  // namespace lmre
