#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace looplynx::util {

namespace {

[[noreturn]] void reject_value(const std::string& name,
                               const std::string& expects,
                               const std::string& text) {
  throw std::invalid_argument("--" + name + " expects " + expects +
                              ", got \"" + text + "\"");
}

/// The whole of `text` read as a T: no blanks, no trailing junk, in range.
/// std::from_chars ignores the locale, so "1.5" means the same everywhere.
template <typename T>
T read_whole(const std::string& name, const std::string& text,
             const char* expects) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) reject_value(name, expects, text);
  return value;
}

long long read_integer(const std::string& name, const std::string& text) {
  return read_whole<long long>(name, text, "a whole number");
}

double read_number(const std::string& name, const std::string& text) {
  return read_whole<double>(name, text, "a number");
}

/// True when `text` is one of the '|'-separated `choices`.
bool is_choice(const std::string& choices, const std::string& text) {
  return text.find('|') == std::string::npos &&
         ("|" + choices + "|").find("|" + text + "|") != std::string::npos;
}

bool read_switch(const std::string& name, const std::string& text) {
  if (text.empty() || is_choice("1|true|yes|on", text)) return true;
  if (is_choice("0|false|no|off", text)) return false;
  reject_value(name, "1/true/yes/on or 0/false/no/off", text);
}

/// Checks a given value against its flag's kind with the readers the
/// getters use, so each kind has one syntax rule. A bare text flag takes
/// its declared bare value.
void check_value(const Flag& flag, std::string& text) {
  const std::string& name = flag.name;
  if (flag.kind == FlagKind::kCount) parse_count(name, text);
  if (flag.kind == FlagKind::kInteger) read_integer(name, text);
  if (flag.kind == FlagKind::kNumber) read_number(name, text);
  if (flag.kind == FlagKind::kSwitch) read_switch(name, text);
  if (flag.kind == FlagKind::kPath && text.empty()) {
    throw std::invalid_argument("--" + name + " needs a file path (--" +
                                name + "=<path>)");
  }
  if (text.empty()) text = flag.bare;
  if (!flag.choices.empty() && !is_choice(flag.choices, text)) {
    reject_value(name, "one of " + flag.choices, text);
  }
}

/// The left column of a help line: how the flag is spelled.
std::string usage(const Flag& flag) {
  static const char* const kSpelling[] = {"=N",       "=INT",  "=NUM",
                                          "[=on|off]", "=PATH", "=TEXT"};
  std::string kind = flag.choices.empty()
                         ? kSpelling[static_cast<int>(flag.kind)]
                         : "=" + flag.choices;
  if (!flag.bare.empty()) kind = "[" + kind + "]";
  return "--" + flag.name + (flag.name == "help" ? "" : kind);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv, FlagTable table)
    : table_(std::move(table)) {
  table_->flags.push_back(
      {"help", FlagKind::kSwitch, "", "print this text and exit"});
  parse(argc, argv);
  // Checked after the whole line is read, so only the last of a repeated
  // flag's values counts.
  for (auto& [name, text] : options_) check_value(declared(name), text);
}

Cli::Cli(int argc, const char* const* argv) { parse(argc, argv); }

void Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!table_) continue;
      throw std::invalid_argument("unexpected argument \"" + arg +
                                  "\" (flags are spelled --key=value)");
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (table_ && std::none_of(table_->flags.begin(), table_->flags.end(),
                               [&](const Flag& f) { return f.name == name; })) {
      throw std::invalid_argument("unknown flag --" + name);
    }
    if (eq != std::string::npos) {
      options_[name] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // Space-separated "--key value": the flag greedily takes the next
      // non-option token as its value.
      options_[name] = argv[++i];
    } else {
      options_[name] = "";  // bare flag
    }
  }
}

const Flag& Cli::declared(const std::string& name) const {
  if (table_) {
    for (const Flag& f : table_->flags) {
      if (f.name == name) return f;
    }
  }
  throw std::logic_error("flag --" + name + " is read but not declared");
}

bool Cli::has(const std::string& name) const {
  if (table_) declared(name);
  return options_.count(name) != 0;
}

std::string Cli::value(const std::string& name, FlagKind kind) const {
  const Flag& flag = declared(name);
  if (flag.kind != kind && !(kind == FlagKind::kText &&
                             flag.kind == FlagKind::kPath)) {
    throw std::logic_error("flag --" + name + " is read as another kind");
  }
  const auto it = options_.find(name);
  if (it != options_.end()) return it->second;
  if (flag.fallback.empty() && kind != FlagKind::kText) {
    throw std::logic_error("flag --" + name +
                           " has a computed default: check has() first");
  }
  return flag.fallback;
}

std::uint32_t Cli::count(const std::string& name) const {
  return parse_count(name, value(name, FlagKind::kCount));
}

long long Cli::integer(const std::string& name) const {
  return read_integer(name, value(name, FlagKind::kInteger));
}

double Cli::number(const std::string& name) const {
  return read_number(name, value(name, FlagKind::kNumber));
}

bool Cli::on(const std::string& name) const {
  return read_switch(name, value(name, FlagKind::kSwitch));
}

std::string Cli::text(const std::string& name) const {
  return value(name, FlagKind::kText);
}

std::string Cli::help() const {
  if (!table_) throw std::logic_error("an untabled Cli has no help");
  std::size_t width = 0;
  for (const Flag& f : table_->flags) width = std::max(width, usage(f).size());
  std::ostringstream os;
  os << table_->about << "\n\n";
  for (const Flag& f : table_->flags) {
    const std::string left = usage(f);
    os << "  " << left << std::string(width + 2 - left.size(), ' ') << f.help;
    if (!f.fallback.empty()) os << " (default " << f.fallback << ")";
    os << "\n";
  }
  os << "\nFlags take --key=value or --key value; an unknown flag or a "
        "positional argument exits 2.\n";
  return os.str();
}

std::string Cli::get_or(const std::string& name, std::string fallback) const {
  const auto it = options_.find(name);
  return it != options_.end() ? it->second : std::move(fallback);
}

long long Cli::get_int_or(const std::string& name, long long fallback) const {
  const auto it = options_.find(name);
  return it != options_.end() ? read_integer(name, it->second) : fallback;
}

double Cli::get_double_or(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  return it != options_.end() ? read_number(name, it->second) : fallback;
}

std::uint32_t parse_count(const std::string& name, const std::string& text) {
  // Unsigned from_chars takes neither sign, so only plain digits read.
  return read_whole<std::uint32_t>(name, text, "a count in 0..4294967295");
}

int run_main(int argc, const char* const* argv, const FlagTable& table,
             int (*body)(const Cli&)) {
  try {
    const Cli cli(argc, argv, table);
    if (cli.has("help") && cli.on("help")) {
      std::cout << cli.help();
      return 0;
    }
    return body(cli);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace looplynx::util
