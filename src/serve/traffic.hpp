// Deterministic traffic generation for the serving fleet.
//
// Two open-loop arrival processes over a workload::Mix of request shapes:
//  - kPoisson: exponential inter-arrival times at a fixed mean rate (the
//              classic serving-benchmark arrival model).
//  - kBursty:  Markov-modulated Poisson: the generator alternates between
//              an "on" phase at burst_factor x the nominal rate and a
//              quieter "off" phase, stressing queue depth and tail latency
//              the way diurnal traffic spikes do.
//
// All randomness flows through util::Rng from a single seed, so a given
// TrafficConfig reproduces the exact same request sequence on every run —
// the property the determinism tests and byte-identical bench output rely
// on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/mix.hpp"
#include "workload/scenario.hpp"

namespace looplynx::serve {

enum class ArrivalProcess : std::uint8_t {
  kPoisson,
  kBursty,
};

/// One open-loop arrival: when (engine cycles) and what shape.
struct Arrival {
  sim::Cycles at = 0;
  workload::Scenario shape;
};

struct TrafficConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  workload::Mix mix = workload::mixed_fleet();
  std::uint32_t num_requests = 64;  // total requests to inject
  std::uint64_t seed = 1;

  /// When non-empty, this exact schedule is replayed instead of sampling an
  /// arrival process (deterministic tests and goldens).
  /// Must be sorted by time (validate() rejects it otherwise). Overrides
  /// `process` and `num_requests` (see request_budget()).
  std::vector<Arrival> explicit_arrivals;

  /// When non-empty, arrival i takes `scripted_shapes[i]` instead of a mix
  /// sample and the script length overrides `num_requests` (see
  /// request_budget()) — arrival *times* are still drawn from `process`.
  /// This is how ordered workloads (multi-turn conversations, where turn t
  /// must arrive before turn t+1) ride the open-loop processes;
  /// `chat_turn_shapes` below builds such a script. Ignored when
  /// `explicit_arrivals` is set. Empty (the default) leaves the sampling
  /// path — and its RNG draw sequence — untouched.
  std::vector<workload::Scenario> scripted_shapes;

  double arrival_rate_per_s = 4.0;  // nominal mean arrival rate

  // ---- Bursty modulation ----
  double burst_factor = 4.0;    // on-phase rate multiplier
  double burst_fraction = 0.25; // fraction of each period spent "on"
  double burst_period_s = 2.0;  // on + off period length

  /// Requests this config injects: the explicit schedule's length, else
  /// the script's, else `num_requests`. FleetSim and TrafficGen both write
  /// it back into `num_requests`.
  std::uint32_t request_budget() const;

  /// Throws std::invalid_argument on an empty mix, a zero request budget,
  /// a rate that is not a finite positive number, degenerate or
  /// non-finite bursty parameters or an unsorted explicit schedule.
  /// FleetConfig::validate() calls it, so a FleetSim is never built with
  /// bad traffic; so does TrafficGen.
  void validate() const;
};

/// Multi-turn chatbot traffic: `conversations` independent conversations,
/// each `turns` requests long, all sharing one `system_prompt_tokens`
/// system prompt. Turn t's prompt replays the full conversation so far —
/// system prompt, then (user message, assistant reply) for every earlier
/// turn, then the new user message — expressed as `PromptSegment`s whose
/// seeds make the replayed content *identical* to what the earlier turns
/// prefilled (and, for the reply segments, to what they decoded). Under
/// the content-addressed prefix cache this makes turn t's entire history a
/// cache hit; without the cache it is exactly the re-prefill bill
/// production chat traffic pays today. `content_seed` keys all content, so
/// two configs with the same seed share system prompts across runs.
struct ChatTrafficConfig {
  std::uint32_t conversations = 8;
  std::uint32_t turns = 4;                  // requests per conversation
  std::uint32_t system_prompt_tokens = 96;  // shared by every conversation
  std::uint32_t user_turn_tokens = 24;      // new user message per turn
  std::uint32_t reply_tokens = 48;          // decode length per turn
  std::uint64_t content_seed = 0x1007cace5eedULL;
};

/// Builds the turn-major request script for `ChatTrafficConfig`: requests
/// c0t0, c1t0, ..., c0t1, c1t1, ... so every conversation's turn t is
/// scheduled before any turn t+1. Feed it to
/// `TrafficConfig::scripted_shapes`.
std::vector<workload::Scenario> chat_turn_shapes(const ChatTrafficConfig& c);

class TrafficGen {
 public:
  TrafficGen(TrafficConfig config, double frequency_hz);

  /// The full arrival schedule: the explicit one when set, else drawn from
  /// the arrival process (Poisson or bursty), sorted by time. Throws
  /// std::invalid_argument when a drawn arrival is not below 2^64 cycles.
  std::vector<Arrival> open_loop_schedule();

 private:
  /// `t_s` seconds as a cycle stamp; throws past the 64-bit clock.
  sim::Cycles to_cycles(double t_s) const;

  /// The next request shape: the script's next entry, else a mix sample.
  workload::Scenario next_shape();
  double exponential_s(double rate_per_s);

  TrafficConfig config_;
  double frequency_hz_;
  util::Rng rng_;
  std::size_t script_cursor_ = 0;  // next scripted_shapes entry to serve
};

}  // namespace looplynx::serve
