#include "util/cli.hpp"

#include <charconv>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace looplynx::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // Space-separated "--key value": the flag greedily takes the next
      // non-option token as its value.
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> Cli::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& name, std::string fallback) const {
  const auto v = get(name);
  return v ? *v : std::move(fallback);
}

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

}  // namespace

long long Cli::get_int_or(const std::string& name, long long fallback) const {
  const auto v = get(name);
  return v ? read_whole<long long>(name, *v, "a whole number") : fallback;
}

double Cli::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  return v ? read_whole<double>(name, *v, "a number") : fallback;
}

std::uint32_t Cli::get_count_or(const std::string& name,
                                std::uint32_t fallback) const {
  const auto v = get(name);
  return v ? parse_count(name, *v) : fallback;
}

bool Cli::get_bool_or(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") {
    return true;
  }
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  reject_value(name, "1/true/yes/on or 0/false/no/off", *v);
}

std::uint32_t parse_count(const std::string& name, const std::string& text) {
  std::uint64_t value = 0;
  bool ok = !text.empty();
  for (const char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      ok = false;
      break;
    }
  }
  if (!ok) {
    reject_value(name,
                 "a count in 0.." + std::to_string(
                     std::numeric_limits<std::uint32_t>::max()),
                 text);
  }
  return static_cast<std::uint32_t>(value);
}

int run_main(int argc, const char* const* argv, int (*body)(const Cli&)) {
  try {
    return body(Cli(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace looplynx::util
