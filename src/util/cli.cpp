#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>

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

long long Cli::get_int_or(const std::string& name, long long fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return std::strtoll(v->c_str(), nullptr, 10);
}

double Cli::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return std::strtod(v->c_str(), nullptr);
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
  return false;
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
    throw std::invalid_argument(
        "--" + name + " expects a count in 0.." +
        std::to_string(std::numeric_limits<std::uint32_t>::max()) +
        ", got \"" + text + "\"");
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
