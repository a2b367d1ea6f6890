// Tiny command-line option parser for example binaries and bench harnesses.
//
// Accepts "--key=value", space-separated "--key value", and bare "--flag"
// forms. The space form makes a flag greedy: a "--key" immediately followed
// by a token that does not start with "--" takes that token as its value,
// so a positional argument cannot directly follow a bare flag (none of the
// repo's binaries use positionals — the greedy rule trades that corner for
// the form operators actually type). Other non-option arguments are
// collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace looplynx::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if --name was given (with or without a value).
  bool has(const std::string& name) const;

  /// Value of --name, or std::nullopt.
  std::optional<std::string> get(const std::string& name) const;

  std::string get_or(const std::string& name, std::string fallback) const;
  /// Typed value of --name, or `fallback` when it is unset. The whole
  /// value must read as an in-range integer, a number ("nan" and "inf"
  /// parse; config validation judges them) or 1/true/yes/on/bare vs
  /// 0/false/no/off; else std::invalid_argument names the flag.
  long long get_int_or(const std::string& name, long long fallback) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool get_bool_or(const std::string& name, bool fallback) const;
  /// Value of a count flag (--requests, --replicas, ...), or `fallback`
  /// when --name is unset. Throws std::invalid_argument unless the value
  /// is plain decimal digits in [0, UINT32_MAX]: a sign, other characters,
  /// trailing junk or an empty value are rejected instead of wrapping.
  std::uint32_t get_count_or(const std::string& name,
                             std::uint32_t fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Parses `text` as the value of count flag --name (the rule
/// Cli::get_count_or applies): decimal digits only, at most UINT32_MAX.
/// Throws std::invalid_argument naming the flag otherwise.
std::uint32_t parse_count(const std::string& name, const std::string& text);

/// Entry point of the serving binaries: parses argv and returns
/// `body(cli)`. A rejected flag or config (std::invalid_argument from
/// anywhere in the run) prints "error: <what()>" to stderr and returns 2.
/// Nothing else is caught, so a broken invariant still aborts loudly.
int run_main(int argc, const char* const* argv, int (*body)(const Cli&));

}  // namespace looplynx::util
