#include "support/error.h"

namespace lmre {

void throw_invalid_argument(const char* what) { throw InvalidArgument(what); }

void throw_internal_error(const char* what) { throw InternalError(what); }

void require(bool cond, const std::string& what) {
  if (!cond) throw InvalidArgument(what);
}

void ensure(bool cond, const std::string& what) {
  if (!cond) throw InternalError(what);
}

const char* to_string(ExitCode c) {
  for (const ExitCodeInfo& info : kExitCodes) {
    if (info.code == c) return info.name;
  }
  return "unknown";
}

}  // namespace lmre
