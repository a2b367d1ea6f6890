#include "workload/scenario.hpp"

#include "util/rng.hpp"

namespace looplynx::workload {

namespace {

// One SplitMix64 step keyed on (stream, position): cheap, constexpr-grade
// mixing with no cross-platform variance. The +1 keeps stream 0 position 0
// away from the SplitMix64 fixed-ish low-entropy seed.
std::uint64_t mix(std::uint64_t stream, std::uint64_t pos) {
  util::SplitMix64 sm(stream * 0x9e3779b97f4a7c15ULL + pos + 1);
  return sm.next();
}

}  // namespace

std::uint64_t prompt_token_id(const Scenario& scenario, std::uint64_t unique,
                              std::uint32_t pos) {
  std::uint32_t base = 0;
  for (const PromptSegment& seg : scenario.prompt_segments) {
    if (pos < base + seg.tokens) return mix(seg.seed, pos - base);
    base += seg.tokens;
  }
  // Beyond the segment map (or no map at all): content unique to this
  // request, salted so it cannot collide with a segment stream.
  return mix(unique ^ 0xc2b2ae3d27d4eb4fULL, pos);
}

Scenario make_scenario(std::uint32_t prefill, std::uint32_t decode) {
  Scenario s;
  s.name += '[';
  s.name += std::to_string(prefill);
  s.name += ':';
  s.name += std::to_string(decode);
  s.name += ']';
  s.prefill = prefill;
  s.decode = decode;
  return s;
}

std::vector<Scenario> fig8_scenarios() {
  std::vector<Scenario> out;
  for (std::uint32_t prefill : {32u, 64u, 128u}) {
    for (std::uint32_t decode : {32u, 128u, 512u}) {
      out.push_back(make_scenario(prefill, decode));
    }
  }
  return out;
}

Scenario chatbot() { return make_scenario(32, 512); }
Scenario code_generation() { return make_scenario(64, 512); }
Scenario summarization() { return make_scenario(128, 32); }

}  // namespace looplynx::workload
