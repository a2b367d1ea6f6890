// Shared helpers for the paper-table/figure harnesses.
#pragma once

#include <cstdint>
#include <string>

#include "model/config.hpp"
#include "util/cli.hpp"

namespace looplynx::bench {

/// The [prefill:decode] request behind the Table II / Table III style
/// "average per-token" numbers.
inline constexpr std::uint32_t kMixPrefill = 64;
inline constexpr std::uint32_t kMixDecode = 512;

inline model::ModelConfig model_from_cli(const util::Cli& cli) {
  const std::string name = cli.get_or("model", "gpt2-medium");
  if (name == "gpt2-small") return model::gpt2_small();
  if (name == "gpt2-xl") return model::gpt2_xl();
  return model::gpt2_medium();
}

}  // namespace looplynx::bench
