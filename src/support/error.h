#pragma once

// Error hierarchy for the lmre library.
//
// All lmre components report failure by throwing one of these exception
// types.  The hierarchy distinguishes caller mistakes (InvalidArgument),
// arithmetic that would silently wrap (OverflowError), inputs outside the
// analyzable fragment (UnsupportedError), and internal invariant violations
// (InternalError).

#include <stdexcept>
#include <string>

namespace lmre {

/// Root of the lmre exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// The caller passed an argument violating a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// An exact integer computation would overflow the working type.
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what) : Error(what) {}
};

/// The input program is outside the affine fragment the analysis handles.
class UnsupportedError : public Error {
 public:
  explicit UnsupportedError(const std::string& what) : Error(what) {}
};

/// An internal invariant was violated (a bug in lmre itself).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Out-of-line throw paths of require/ensure.  Keeping the throw (and the
/// std::string it builds) out of line leaves a passing check as one
/// compare and a not-taken branch at every call site.
[[noreturn]] void throw_invalid_argument(const char* what);
[[noreturn]] void throw_internal_error(const char* what);

/// Throws InvalidArgument with `what` when `cond` is false.  The literal
/// overload allocates nothing unless the check fails.
inline void require(bool cond, const char* what) {
  if (!cond) [[unlikely]] throw_invalid_argument(what);
}

/// Throws InternalError with `what` when `cond` is false.  The literal
/// overload allocates nothing unless the check fails.
inline void ensure(bool cond, const char* what) {
  if (!cond) [[unlikely]] throw_internal_error(what);
}

/// As above, for a message built at run time.  The caller pays for the
/// string whether or not the check fails, so keep these off hot paths.
void require(bool cond, const std::string& what);
void ensure(bool cond, const std::string& what);

/// Process exit codes shared by every lmre tool entry point (the CLI
/// subcommands, run_cli, and the batch session).  The numeric values are a
/// stable part of the CLI contract -- scripts match on them -- and are
/// asserted by cli_tool_test.
enum class ExitCode : int {
  kSuccess = 0,      ///< success / lint clean
  kFailure = 1,      ///< command failure (unreadable file, unsupported shape)
  kUsage = 2,        ///< usage error (bad flags or arguments)
  kDiagnostics = 3,  ///< input rejected with diagnostics (parse/lint errors)
  kOverflow = 4,     ///< arithmetic outside 64-bit range (OverflowError)
};

/// The process exit status for `c` (the enum's underlying value).
constexpr int to_int(ExitCode c) { return static_cast<int>(c); }

/// One row of the exit-code registry: the code, its stable name, and the
/// one-line meaning the CLI usage text prints.
struct ExitCodeInfo {
  ExitCode code;
  const char* name;
  const char* meaning;
};

/// Single source of truth for every exit code.  to_string(ExitCode), the
/// CLI usage table and the wire-status mapping all derive from this list;
/// registry_test pins it against the enum so a new code cannot be added
/// to one surface and silently missed in another.
inline constexpr ExitCodeInfo kExitCodes[] = {
    {ExitCode::kSuccess, "success", "success / lint clean / plan certified"},
    {ExitCode::kFailure, "failure",
     "command failed (unreadable file, unsupported shape, miscompare)"},
    {ExitCode::kUsage, "usage", "usage error (bad flags or arguments)"},
    {ExitCode::kDiagnostics, "diagnostics",
     "input rejected with diagnostics (parse/lint/verify errors)"},
    {ExitCode::kOverflow, "overflow",
     "arithmetic outside the exact 64-bit range"},
};

inline constexpr size_t kExitCodeCount =
    sizeof(kExitCodes) / sizeof(kExitCodes[0]);

/// Stable lower-case name, e.g. "success", "diagnostics" (registry row).
const char* to_string(ExitCode c);

}  // namespace lmre
