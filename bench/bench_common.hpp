// Shared helpers for the paper-table/figure harnesses.
#pragma once

#include <cstdint>
#include <string>

#include "core/arch_config.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "util/cli.hpp"

namespace looplynx::bench {

/// Standard request mix used for Table II / Table III style "average
/// per-token" numbers (documented in EXPERIMENTS.md).
inline constexpr std::uint32_t kMixPrefill = 64;
inline constexpr std::uint32_t kMixDecode = 512;

/// Default sampling stride for full-length GPT-2 runs: ~3% interpolation
/// error bound is verified by SystemTest.SampledRunApproximatesExactRun.
inline core::RunOptions fast_options(const util::Cli& cli) {
  core::RunOptions opt;
  opt.token_sample_stride = cli.get_count_or("stride", 16);
  return opt;
}

inline model::ModelConfig model_from_cli(const util::Cli& cli) {
  const std::string name = cli.get_or("model", "gpt2-medium");
  if (name == "gpt2-small") return model::gpt2_small();
  if (name == "gpt2-xl") return model::gpt2_xl();
  return model::gpt2_medium();
}

}  // namespace looplynx::bench
