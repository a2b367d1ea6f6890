// Command-line flags for the example binaries and bench harnesses.
//
// Each binary declares its flags once, in a FlagTable: name, value kind,
// default and one help line. util::run_main builds the Cli from that
// table, prints the --help text it generates, and maps a rejected flag to
// exit 2. A tabled Cli checks flag *syntax* when it is built: an
// undeclared flag, a positional token or a value its kind cannot read
// throws std::invalid_argument before the binary runs anything. What a
// value *means* (a zero rate, min > max, ...) is checked by the configs'
// validate().
//
// Tokens are "--key=value", "--key value" or a bare "--key". The space
// form is greedy: a "--key" followed by a token that does not start with
// "--" takes that token as its value. When a flag is given twice the last
// value wins (tools/check_docs.py appends "--requests=16" to quoted
// commands and relies on it).
//
// The untabled Cli(argc, argv) constructor and the get_*_or getters keep
// no table, so they check no flag name: they remain only because the
// benchmark driver (bench/suite/main.cpp) still parses its flags that way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace looplynx::util {

enum class FlagKind : std::uint8_t {
  kCount,    // plain decimal digits in [0, UINT32_MAX]
  kInteger,  // a signed whole number
  kNumber,   // a floating-point number ("nan"/"inf" parse; validate() judges)
  kSwitch,   // bare or 1/true/yes/on = on; 0/false/no/off = off
  kPath,     // a file path; must not be empty
  kText,     // free text, or one of `choices` when those are set
};

/// One declared flag. `fallback` is the default as typed on the command
/// line; an empty fallback on a count/integer/number flag means the
/// default is computed by the binary (its help line states the rule), so
/// read it only after has(). `choices` ('|'-separated) restricts a text
/// flag; `bare` is the value a bare text flag takes.
struct Flag {
  std::string name;
  FlagKind kind;
  std::string fallback;
  std::string help;
  std::string choices = {};
  std::string bare = {};
};

/// A binary's flags and its one-line description.
struct FlagTable {
  std::string about;
  std::vector<Flag> flags;
};

class Cli {
 public:
  /// Parses argv against `table` (plus the implicit --help switch). Throws
  /// std::invalid_argument naming the token for an undeclared flag, a
  /// positional token or a value its kind rejects.
  Cli(int argc, const char* const* argv, FlagTable table);
  /// Untabled: keeps every --flag, ignores positionals, checks nothing.
  Cli(int argc, const char* const* argv);

  /// True if --name was given. On a tabled Cli an undeclared name is a
  /// std::logic_error (a programming error, not bad input).
  bool has(const std::string& name) const;

  /// The value of a declared flag: the given one, else the table default.
  /// Reading an undeclared name, a name of another kind, or an unset flag
  /// whose default is computed is a std::logic_error.
  std::uint32_t count(const std::string& name) const;
  long long integer(const std::string& name) const;
  double number(const std::string& name) const;
  bool on(const std::string& name) const;
  /// A path, text or choice flag.
  std::string text(const std::string& name) const;

  /// The generated --help: the description, then one line per flag.
  std::string help() const;

  /// Untabled getters: the value of --name, or `fallback` when it is
  /// unset. A number must read whole, under the same rule as its kind.
  std::string get_or(const std::string& name, std::string fallback) const;
  long long get_int_or(const std::string& name, long long fallback) const;
  double get_double_or(const std::string& name, double fallback) const;

 private:
  void parse(int argc, const char* const* argv);
  const Flag& declared(const std::string& name) const;
  std::string value(const std::string& name, FlagKind kind) const;

  std::map<std::string, std::string> options_;
  std::optional<FlagTable> table_;
};

/// Parses `text` as the value of count flag --name: decimal digits only,
/// at most UINT32_MAX. Throws std::invalid_argument naming the flag
/// otherwise.
std::uint32_t parse_count(const std::string& name, const std::string& text);

/// Entry point of every binary: builds the Cli from `table`, prints the
/// generated help on --help (exit 0), else returns `body(cli)`. A rejected
/// flag or config (std::invalid_argument from anywhere in the run) prints
/// "error: <what()>" to stderr and returns 2. Nothing else is caught, so a
/// broken invariant still aborts loudly.
int run_main(int argc, const char* const* argv, const FlagTable& table,
             int (*body)(const Cli&));

}  // namespace looplynx::util
