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

/// The --model declaration every harness that takes a model shares.
inline util::Flag model_flag() {
  return {"model", util::FlagKind::kText, "gpt2-medium", "model to simulate",
          "gpt2-small|gpt2-medium|gpt2-xl"};
}

/// The model --model names (the table admits only its three choices).
inline model::ModelConfig model_from_cli(const util::Cli& cli) {
  const std::string name = cli.text("model");
  if (name == "gpt2-small") return model::gpt2_small();
  return name == "gpt2-xl" ? model::gpt2_xl() : model::gpt2_medium();
}

}  // namespace looplynx::bench
