#pragma once

// Shared helpers of the golden-file tests: reading the pinned files from the
// source tree and normalizing the probed path prefix out of documents.

#include <fstream>
#include <sstream>
#include <string>

namespace lmre::golden {

/// The whole file, or "" when it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The source root relative to the test's working directory (the binaries
/// run from <build>/tests): "" or a "../" chain, or "?" when not found.
inline std::string source_root() {
  for (const char* base : {"", "../", "../../", "../../../"}) {
    if (!read_file(std::string(base) + "tests/golden/example10.loop").empty()) {
      return base;
    }
  }
  return "?";
}

/// Replaces every occurrence of `from` with `to`.
inline std::string replace_all(std::string s, const std::string& from,
                               const std::string& to) {
  size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

}  // namespace lmre::golden
