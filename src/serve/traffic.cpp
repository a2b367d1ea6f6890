#include "serve/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace looplynx::serve {

void TrafficConfig::validate() const {
  if (mix.entries.empty()) {
    throw std::invalid_argument("traffic mix has no scenarios");
  }
  if (request_budget() == 0) {
    throw std::invalid_argument("traffic needs at least one request");
  }
  // Bounds are written as !(x > 0) so NaN fails them too; a NaN reaching
  // open_loop_schedule's cast to sim::Cycles is undefined behaviour.
  // Infinities are rejected as well: an infinite rate lands every arrival
  // on cycle 0, and an infinite period makes a NaN (0 x inf).
  if (!(arrival_rate_per_s > 0) || !std::isfinite(arrival_rate_per_s)) {
    throw std::invalid_argument(
        "arrival rate must be a finite positive number");
  }
  if (process == ArrivalProcess::kBursty) {
    if (!(burst_period_s > 0) || !std::isfinite(burst_period_s) ||
        !(burst_factor > 0) || !std::isfinite(burst_factor) ||
        !(burst_fraction > 0) || !(burst_fraction < 1)) {
      throw std::invalid_argument(
          "bursty traffic needs finite burst_period_s > 0, finite "
          "burst_factor > 0 and burst_fraction in (0, 1)");
    }
  }
  if (!std::is_sorted(explicit_arrivals.begin(), explicit_arrivals.end(),
                      [](const Arrival& a, const Arrival& b) {
                        return a.at < b.at;
                      })) {
    throw std::invalid_argument(
        "explicit_arrivals must be sorted by arrival time");
  }
}

std::uint32_t TrafficConfig::request_budget() const {
  if (!explicit_arrivals.empty()) {
    return static_cast<std::uint32_t>(explicit_arrivals.size());
  }
  if (!scripted_shapes.empty()) {
    return static_cast<std::uint32_t>(scripted_shapes.size());
  }
  return num_requests;
}

TrafficGen::TrafficGen(TrafficConfig config, double frequency_hz)
    : config_(std::move(config)),
      frequency_hz_(frequency_hz),
      rng_(config_.seed) {
  config_.validate();
  config_.num_requests = config_.request_budget();
}

sim::Cycles TrafficGen::to_cycles(double t_s) const {
  // 2^64 is exact in a double; written as !(x < bound) so NaN fails too.
  // The cast of a value at or past the bound would be undefined behaviour.
  const double cycles = t_s * frequency_hz_;
  if (!(cycles < 18446744073709551616.0)) {
    throw std::invalid_argument(
        "an arrival lands past the 64-bit cycle clock (arrival rate too "
        "low for the request count)");
  }
  return static_cast<sim::Cycles>(cycles);
}

double TrafficGen::exponential_s(double rate_per_s) {
  // Inverse-CDF; next_double() < 1 so the log argument is positive.
  return -std::log(1.0 - rng_.next_double()) / rate_per_s;
}

workload::Scenario TrafficGen::next_shape() {
  if (!config_.scripted_shapes.empty()) {
    const workload::Scenario& s =
        config_.scripted_shapes[script_cursor_ % config_.scripted_shapes.size()];
    ++script_cursor_;
    return s;
  }
  return config_.mix.sample(rng_.next_double());
}

std::vector<workload::Scenario> chat_turn_shapes(const ChatTrafficConfig& c) {
  if (c.conversations == 0 || c.turns == 0) {
    throw std::invalid_argument("chat traffic needs conversations, turns >= 1");
  }
  if (c.system_prompt_tokens == 0 || c.user_turn_tokens == 0 ||
      c.reply_tokens == 0) {
    throw std::invalid_argument(
        "chat traffic needs nonzero system/user/reply token counts");
  }
  // Content streams: one shared system-prompt seed, plus per-conversation
  // per-turn seeds for user messages and assistant replies. SplitMix64
  // expansion keeps streams decorrelated and platform-independent.
  util::SplitMix64 sys_sm(c.content_seed);
  const std::uint64_t system_seed = sys_sm.next();
  const auto stream_seed = [&](std::uint32_t conv, std::uint32_t turn,
                               bool reply) {
    util::SplitMix64 sm(c.content_seed ^
                        (0x9e3779b97f4a7c15ULL * (conv + 1)) ^
                        (0xbf58476d1ce4e5b9ULL * (2ULL * turn + (reply ? 1 : 0))));
    return sm.next();
  };

  std::vector<workload::Scenario> script;
  script.reserve(static_cast<std::size_t>(c.conversations) * c.turns);
  // Turn-major: every conversation's turn t precedes any turn t+1, so a
  // turn's history has (usually) been prefilled — and cached — by the time
  // the follow-up arrives.
  for (std::uint32_t turn = 0; turn < c.turns; ++turn) {
    for (std::uint32_t conv = 0; conv < c.conversations; ++conv) {
      workload::Scenario s;
      s.prompt_segments.push_back({system_seed, c.system_prompt_tokens});
      for (std::uint32_t j = 0; j < turn; ++j) {
        s.prompt_segments.push_back(
            {stream_seed(conv, j, false), c.user_turn_tokens});
        s.prompt_segments.push_back(
            {stream_seed(conv, j, true), c.reply_tokens});
      }
      s.prompt_segments.push_back(
          {stream_seed(conv, turn, false), c.user_turn_tokens});
      s.prefill = s.segment_tokens();
      s.decode = c.reply_tokens;
      s.name = "[chat c" + std::to_string(conv) + " t" +
               std::to_string(turn) + " " + std::to_string(s.prefill) + ":" +
               std::to_string(s.decode) + "]";
      script.push_back(std::move(s));
    }
  }
  return script;
}

std::vector<Arrival> TrafficGen::open_loop_schedule() {
  if (!config_.explicit_arrivals.empty()) return config_.explicit_arrivals;
  std::vector<Arrival> schedule;
  schedule.reserve(config_.num_requests);

  if (config_.process == ArrivalProcess::kPoisson) {
    double t = 0.0;
    for (std::uint32_t i = 0; i < config_.num_requests; ++i) {
      t += exponential_s(config_.arrival_rate_per_s);
      schedule.push_back(Arrival{to_cycles(t), next_shape()});
    }
    return schedule;
  }

  // Bursty: alternate on/off phases of fixed length. The off-phase rate is
  // chosen so the long-run mean stays at arrival_rate_per_s when possible;
  // when burst_factor * burst_fraction >= 1 the off phase is silent and the
  // realized mean rate is lower than nominal.
  const double on_len = config_.burst_period_s * config_.burst_fraction;
  const double off_len = config_.burst_period_s - on_len;
  const double on_rate = config_.arrival_rate_per_s * config_.burst_factor;
  const double off_weight =
      1.0 - config_.burst_factor * config_.burst_fraction;
  const double off_rate =
      off_len > 0 && off_weight > 0
          ? config_.arrival_rate_per_s * off_weight / (1.0 - config_.burst_fraction)
          : 0.0;

  // Walk the phases by explicit index instead of fmod on absolute time:
  // near a phase boundary fmod's rounding could advance t by only an
  // epsilon per lap, and with a short burst_period_s the generator then
  // crawls through denormal-sized steps — an effectively infinite loop.
  // Offsets are drawn within the current phase (the exponential is
  // memoryless, so restarting the draw at each boundary is exact) and a
  // draw past the phase end just moves to the next phase.
  std::uint64_t period_idx = 0;
  bool on = true;
  double offset = 0.0;  // position within the current phase
  while (schedule.size() < config_.num_requests) {
    const double len = on ? on_len : off_len;
    const double rate = on ? on_rate : off_rate;
    const double base =
        static_cast<double>(period_idx) * config_.burst_period_s +
        (on ? 0.0 : on_len);
    if (rate > 0) {
      while (schedule.size() < config_.num_requests) {
        offset += exponential_s(rate);
        if (offset >= len) break;
        schedule.push_back(Arrival{to_cycles(base + offset), next_shape()});
      }
    }
    offset = 0.0;
    if (on) {
      on = false;
    } else {
      on = true;
      ++period_idx;
    }
  }
  return schedule;
}

}  // namespace looplynx::serve
