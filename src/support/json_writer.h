#pragma once

// A streaming JSON writer: appends one compact document straight into the
// caller's string, with no value tree.
//
// The output is byte for byte what Json::dump() prints for the same
// document.  Json sorts an object's keys (std::map); the writer does not
// sort, so the caller emits them in ascending byte order -- each key is a
// string literal that needs no escaping, and builds without NDEBUG check
// both.  Strings are escaped in one pass that appends clean runs whole.
// This is how every analysis payload is written: computed once, written
// once, spliced verbatim by batch and serve.

#include <cstdint>
#include <string>
#include <string_view>

#include "support/checked.h"

namespace lmre {

/// Appends `s` escaped per RFC 8259 (no quotes): `"` and `\` and the
/// control characters are escaped, every other byte is copied.
void append_json_escaped(std::string& out, std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() { return open('{', true); }
  JsonWriter& end_object() { return close('}', true); }
  JsonWriter& begin_array() { return open('[', false); }
  JsonWriter& end_array() { return close(']', false); }

  /// An object key: a literal that needs no escaping, greater than the
  /// object's previous key.
  JsonWriter& key(const char* k);

  JsonWriter& value(Int v);
  JsonWriter& value(int v) { return value(static_cast<Int>(v)); }
  JsonWriter& value(bool v);
  /// "%.17g"; a non-finite value throws, as Json::dump does.
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  /// A well-formed JSON value, spliced verbatim.
  JsonWriter& raw(std::string_view json);

  /// key(k).value(v).
  template <typename T>
  JsonWriter& field(const char* k, const T& v) {
    return key(k).value(v);
  }

  /// [x, ...] over a range of Ints.
  template <typename Ints>
  JsonWriter& int_array(const Ints& xs) {
    begin_array();
    for (Int x : xs) value(x);
    return end_array();
  }

  /// [[row 0], [row 1], ...] of a matrix (rows(), cols(), m(r, c)).
  template <typename Mat>
  JsonWriter& matrix(const Mat& m) {
    begin_array();
    for (size_t r = 0; r < m.rows(); ++r) {
      begin_array();
      for (size_t c = 0; c < m.cols(); ++c) value(m(r, c));
      end_array();
    }
    return end_array();
  }

 private:
  static constexpr int kMaxDepth = 64;

  // The separator before a value: none right after a key or at the top
  // level, else comma().
  void separate();
  // The separator before a container's element or key: none before its
  // first, a comma otherwise.
  void comma();
  JsonWriter& open(char bracket, bool object);
  JsonWriter& close(char bracket, bool object);

  std::string& out_;
  int depth_ = 0;
  bool after_key_ = false;
  std::uint64_t empty_ = 0;    ///< bit d: the container at depth d+1 has no element yet
  std::uint64_t objects_ = 0;  ///< bit d: the container at depth d+1 is an object
  // Per depth: the object's last key, for the order check of builds
  // without NDEBUG (kept in every build, so the layout does not depend on
  // NDEBUG).
  const char* last_key_[kMaxDepth] = {};
};

}  // namespace lmre
