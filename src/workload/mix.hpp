// Weighted traffic mixes over the [prefill : decode] scenarios — the
// request population an open-loop serving fleet draws from. A Mix is what
// the serve-layer TrafficGen samples (deterministically, via util::Rng) to
// assign each arriving request its shape.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "workload/scenario.hpp"

namespace looplynx::workload {

struct WeightedScenario {
  Scenario scenario;
  double weight = 1.0;  // relative; normalized by Mix::sample
};

struct Mix {
  std::string name;
  std::vector<WeightedScenario> entries;

  /// Picks the entry whose cumulative normalized weight covers `u`,
  /// u in [0, 1). Deterministic given u; feed it Rng::next_double().
  const Scenario& sample(double u) const;

  /// Expected tokens per request (prefill + decode) under the weights.
  double mean_tokens_per_request() const;
};

/// Pure chatbot traffic: short prompts, long generations.
Mix chatbot_mix();

/// Code assistant traffic: medium prompts, long generations, with a tail of
/// short completion-style requests.
Mix codegen_mix();

/// Summarization traffic: long prompts, short generations.
Mix summarization_mix();

/// A fleet-realistic blend of all three applications plus the Fig. 8 corner
/// shapes as stragglers.
Mix mixed_fleet();

}  // namespace looplynx::workload
