#include "support/cli.h"

#include <algorithm>
#include <iostream>

#include "support/error.h"
#include "support/text.h"

namespace lmre {

void Cli::flag(std::string name, Takes takes, Setter set, std::string help,
               std::string shown_default) {
  require(std::none_of(flags_.begin(), flags_.end(),
                       [&](const Flag& f) { return f.name == name; }),
          "duplicate flag --" + name);
  flags_.push_back(Flag{std::move(name), takes, std::move(set), std::move(help),
                        std::move(shown_default)});
}

void Cli::flag(const std::string& name, bool* target, std::string help) {
  flag(name, Takes::kNone,
       [target](const Value&) {
         *target = true;
         return std::string();
       },
       std::move(help));
}

void Cli::flag(const std::string& name, std::string* target, std::string help) {
  flag(name, Takes::kValue,
       [target](const Value& v) {
         *target = *v;
         return std::string();
       },
       std::move(help), *target);
}

void Cli::flag(const std::string& name, Int* target, std::string help) {
  number<Int>(name, target, nullptr, {}, std::move(help));
}

Cli::Parsed Cli::parse(const std::vector<std::string>& args) const {
  Parsed p;
  for (const std::string& arg : args) {
    if (arg == "-" || arg.rfind('-', 0) != 0) {
      p.positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    auto it = std::find_if(flags_.begin(), flags_.end(), [&](const Flag& f) {
      return arg.compare(0, eq, "--" + f.name) == 0;
    });
    if (it == flags_.end() ||
        it->takes == (has_value ? Takes::kNone : Takes::kValue)) {
      p.error = program_ + ": unknown flag '" + arg + "'";
      p.unknown = arg;
      return p;
    }
    Value value;
    if (has_value) value = arg.substr(eq + 1);
    p.error = it->set(value);
    if (!p.error.empty()) return p;
  }
  return p;
}

std::optional<int> Cli::parse_main(int argc, char** argv) const {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return 0;
    }
  }
  Parsed p = parse(args);
  if (p.error.empty() && !p.positional.empty()) {
    p.error = program_ + ": unexpected argument '" + p.positional[0] + "'";
  }
  if (p.error.empty()) return std::nullopt;
  std::cerr << p.error << '\n';
  return 2;
}

std::vector<std::string> Cli::spellings() const {
  static const char* const kSuffix[] = {"", "=", "[=]"};  // by Takes
  std::vector<std::string> out;
  for (const Flag& f : flags_) {
    out.push_back("--" + f.name + kSuffix[static_cast<int>(f.takes)]);
  }
  return out;
}

std::string Cli::usage() const {
  std::string u = "usage: " + program_ + " [flags]\n";
  const std::vector<std::string> names = spellings();
  for (size_t i = 0; i < flags_.size(); ++i) {
    u += "  " + pad_right(names[i], 20) + flags_[i].help;
    if (!flags_[i].shown_default.empty()) {
      u += " (default: " + flags_[i].shown_default + ")";
    }
    u += '\n';
  }
  return u;
}

}  // namespace lmre
