#include "workload/mix.hpp"

#include <cassert>

namespace looplynx::workload {

const Scenario& Mix::sample(double u) const {
  assert(!entries.empty());
  double total = 0.0;
  for (const WeightedScenario& e : entries) total += e.weight;
  double cum = 0.0;
  for (const WeightedScenario& e : entries) {
    cum += e.weight / total;
    if (u < cum) return e.scenario;
  }
  return entries.back().scenario;  // u rounding at the top end
}

double Mix::mean_tokens_per_request() const {
  double total = 0.0;
  double acc = 0.0;
  for (const WeightedScenario& e : entries) total += e.weight;
  for (const WeightedScenario& e : entries) {
    acc += e.weight / total * static_cast<double>(e.scenario.total());
  }
  return acc;
}

Mix chatbot_mix() {
  return Mix{"chatbot",
             {{chatbot(), 0.7},
              {make_scenario(32, 128), 0.2},   // short follow-up turns
              {make_scenario(128, 512), 0.1}}};  // long-context turns
}

Mix codegen_mix() {
  return Mix{"codegen",
             {{code_generation(), 0.6},
              {make_scenario(64, 32), 0.3},    // inline completions
              {make_scenario(128, 512), 0.1}}};  // whole-file generation
}

Mix summarization_mix() {
  return Mix{"summarization",
             {{summarization(), 0.8},
              {make_scenario(128, 128), 0.2}}};  // summary + bullet points
}

Mix mixed_fleet() {
  return Mix{"mixed-fleet",
             {{chatbot(), 0.4},
              {code_generation(), 0.3},
              {summarization(), 0.2},
              {make_scenario(32, 32), 0.05},   // classification-style
              {make_scenario(128, 512), 0.05}}};  // heavy stragglers
}

}  // namespace looplynx::workload
