#pragma once

// The command-line flag parser of the `lmre` verbs and the example binaries.
//
// Each flag is declared once: its name, the value it takes and one setter
// that parses the whole value into the caller's variable.  `--name` and
// `--name=value` are the only spellings.  parse() never throws and never
// prints: it returns the positional arguments (a lone "-" included) or the
// first error, worded for the user.

#include <charconv>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "support/checked.h"

namespace lmre {

/// The whole of `text` as a T ("4", "-1", "0.5"); nullopt on an empty
/// value, trailing junk ("4x"), overflow or a non-finite double ("inf",
/// "nan").  (strtoll and std::stoi would read "4x" as 4.)
template <class T>
std::optional<T> parse_number(const std::string& text) {
  const char* end = text.data() + text.size();
  T v{};
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

class Cli {
 public:
  /// What value a flag takes.
  enum class Takes {
    kNone,      ///< `--name` only
    kValue,     ///< `--name=value` only
    kOptional,  ///< `--name` or `--name=value`
  };

  /// A flag's value: nullopt for a bare `--name`.
  using Value = std::optional<std::string>;
  /// Parses the value into the caller's variable; returns "" on success,
  /// else the message to print.
  using Setter = std::function<std::string(const Value&)>;

  /// `program` heads the unknown-flag message and usage().
  explicit Cli(std::string program) : program_(std::move(program)) {}

  void flag(std::string name, Takes takes, Setter set, std::string help = {},
            std::string shown_default = {});

  /// A switch: a bare `--name` sets `*target` to true.
  void flag(const std::string& name, bool* target, std::string help = {});
  /// `--name=S`: stores the value verbatim.
  void flag(const std::string& name, std::string* target, std::string help = {});
  /// `--name=N`: one whole integer.
  void flag(const std::string& name, Int* target, std::string help = {});

  /// `--name=N`: one whole number of type T, refused with
  /// "bad --name value: --name=V" on junk and with `range_error` when `ok`
  /// rejects it.
  template <class T, class Target>
  void number(const std::string& name, Target* target, bool (*ok)(T) = nullptr,
              std::string range_error = {}, std::string help = {}) {
    flag(name, Takes::kValue,
         [name, target, ok, range_error](const Value& v) {
           std::optional<T> n = parse_number<T>(*v);
           if (!n) return "bad --" + name + " value: --" + name + "=" + *v;
           if (ok && !ok(*n)) return range_error;
           *target = static_cast<Target>(*n);
           return std::string();
         },
         std::move(help), std::to_string(*target));
  }

  struct Parsed {
    std::vector<std::string> positional;
    std::string error;    ///< the first error; empty when all flags parsed
    std::string unknown;  ///< the argument, when `error` is an unknown flag
  };

  /// Runs each flag's setter in argument order, stopping at the first
  /// error.  A dash-led argument other than "-" must be a declared flag in
  /// a spelling it takes; anything else is positional.
  Parsed parse(const std::vector<std::string>& args) const;

  /// For a main() without positional arguments: parses argv[1..].  --help
  /// or -h prints usage() to stdout (returns 0); an error or a positional
  /// argument prints to stderr (returns 2); nullopt means run.
  std::optional<int> parse_main(int argc, char** argv) const;

  std::string usage() const;
  /// Each flag as "--name", "--name=" or "--name[=]", by the value it takes.
  std::vector<std::string> spellings() const;

 private:
  struct Flag {
    std::string name;  // without the leading "--"
    Takes takes;
    Setter set;
    std::string help;
    std::string shown_default;  // usage() prints it when not empty
  };
  std::string program_;
  std::vector<Flag> flags_;
};

}  // namespace lmre
