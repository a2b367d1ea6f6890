#include "serve/autoscaler.hpp"

#include <stdexcept>

namespace looplynx::serve {

ScalePolicy parse_scale_policy(const std::string& name) {
  if (name == "queue") return ScalePolicy::kQueueDepth;
  if (name == "slo") return ScalePolicy::kSloTtft;
  if (name == "hybrid") return ScalePolicy::kHybrid;
  throw std::invalid_argument("unknown autoscale policy \"" + name +
                              "\" (expected queue|slo|hybrid)");
}

const char* scale_policy_name(ScalePolicy policy) {
  switch (policy) {
    case ScalePolicy::kQueueDepth:
      return "queue";
    case ScalePolicy::kSloTtft:
      return "slo";
    case ScalePolicy::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

const char* scale_trigger_name(ScaleTrigger trigger) {
  switch (trigger) {
    case ScaleTrigger::kQueueHigh:
      return "queue-high";
    case ScaleTrigger::kQueueLow:
      return "queue-low";
    case ScaleTrigger::kTtftHigh:
      return "ttft-high";
    case ScaleTrigger::kTtftLow:
      return "ttft-low";
  }
  return "unknown";
}

AutoscalerConfig tier_autoscaler_config(const AutoscalerConfig& fleet,
                                        std::size_t tier, std::uint32_t pool,
                                        bool decode_tier) {
  AutoscalerConfig cfg = fleet;
  if (!fleet.tier_min.empty()) cfg.min_replicas = fleet.tier_min.at(tier);
  cfg.max_replicas = pool;
  cfg.tier_min.clear();
  if (decode_tier) cfg.policy = ScalePolicy::kQueueDepth;
  return cfg;
}

Autoscaler::Autoscaler(const AutoscalerConfig& config, const SloConfig& slo)
    : config_(config), ttft_high_(slo.ttft_ms), ttft_low_(0.5 * slo.ttft_ms) {}

Autoscaler::Decision Autoscaler::evaluate(const ScaleSignals& signals) {
  if (cooldown_ > 0) {
    // Refractory period after a scale event: the fleet needs time to
    // absorb the change before the signals mean anything again. Streaks
    // do not accumulate during cooldown, so a burst cannot "bank" scale
    // events while the controller is holding.
    --cooldown_;
    return {};
  }
  const bool queue_up = signals.queue_per_live > config_.queue_high;
  const bool queue_down = signals.queue_per_live < config_.queue_low;
  // An empty window means nothing finished recently: for scale-up there
  // is no tail to defend, for scale-down it reads as idle.
  const bool ttft_up =
      signals.ttft_samples > 0 && signals.ttft_p99_ms > ttft_high_;
  const bool ttft_down =
      signals.ttft_samples == 0 || signals.ttft_p99_ms < ttft_low_;

  bool up = false, down = false;
  switch (config_.policy) {
    case ScalePolicy::kQueueDepth:
      up = queue_up;
      down = queue_down;
      break;
    case ScalePolicy::kSloTtft:
      up = ttft_up;
      down = ttft_down;
      break;
    case ScalePolicy::kHybrid:
      // Grow on the fastest alarm, release only when both are quiet.
      up = queue_up || ttft_up;
      down = queue_down && ttft_down;
      break;
  }

  if (up) {
    if (up_streak_ < config_.up_evals) ++up_streak_;  // saturate, no overflow
    down_streak_ = 0;
  } else if (down) {
    if (down_streak_ < config_.down_evals) ++down_streak_;
    up_streak_ = 0;
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }

  // Attribute the event to the signal the policy actually acted on: the
  // pure-SLO policy never reports a queue trigger, and hybrid names the
  // queue signal when it participated (it is the faster alarm).
  const bool queue_signals = config_.policy != ScalePolicy::kSloTtft;
  if (up_streak_ >= config_.up_evals && signals.live < config_.max_replicas) {
    up_streak_ = 0;
    down_streak_ = 0;
    cooldown_ = config_.cooldown_evals;
    return {+1, queue_signals && queue_up ? ScaleTrigger::kQueueHigh
                                          : ScaleTrigger::kTtftHigh};
  }
  if (down_streak_ >= config_.down_evals &&
      signals.live > config_.min_replicas) {
    up_streak_ = 0;
    down_streak_ = 0;
    cooldown_ = config_.cooldown_evals;
    return {-1, queue_signals && queue_down ? ScaleTrigger::kQueueLow
                                            : ScaleTrigger::kTtftLow};
  }
  return {};
}

}  // namespace looplynx::serve
