// Fleet-level autoscaling: a deterministic control loop that grows and
// shrinks the live replica set of a FleetSim run against load signals.
//
// The autoscaler is evaluated on the shared fleet clock every
// eval_interval_ms. Each evaluation reads two window-scoped signals —
// per-live-replica queue depth (the peak since the previous evaluation,
// RequestQueue::take_window_peak) and the rolling-window p99 TTFT
// (util::SlidingWindow, fed at token emission, never re-scanned from full
// records) — and decides grow / hold / shrink under the configured policy.
//
// Semantics the determinism tests pin:
//  - The live replica set is always a prefix *within each tier* (replicas
//    grouped by ReplicaRole; a symmetric fleet is one tier holding every
//    replica, and its tier prefix IS the legacy index prefix [0, live)).
//    Scale-up activates the lowest-index inactive replica of the tier,
//    scale-down drains the tier's highest-index live one. Combined with
//    the LoadBalancer's lowest-active-index tie-breaks, a FleetConfig
//    fully determines the scale-event log byte for byte.
//  - Draining is graceful: a deactivated replica stops receiving routed
//    arrivals (the balancer masks it) but keeps its scheduler running
//    until every request already routed to it has finished. Its occupancy
//    until that drain instant still counts toward FleetResult's
//    replica-cycles cost metric.
//  - Hysteresis: a scale decision needs `up_evals` (resp. `down_evals`)
//    *consecutive* evaluations past the high (low) water mark, and every
//    scale event starts a `cooldown_evals` refractory period in which the
//    controller holds. One replica per event — no step scaling — so runs
//    remain insensitive to signal magnitude beyond the threshold crossing.
//  - Autoscaling disabled (the default) changes nothing: no control
//    coroutine is spawned, no window is attached, and fleet output stays
//    byte-identical to the static-fleet engine.
//
// The decision core (Autoscaler::evaluate) is a pure function of its
// signal snapshot plus the controller's own streak/cooldown state — no
// clock reads, no randomness — so the hysteresis rules are unit-testable
// without an engine (tests/test_autoscaler.cpp), like LoadBalancer::pick.
//
// Architecture notes: DESIGN.md §6.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/metrics.hpp"
#include "sim/engine.hpp"

namespace looplynx::serve {

/// Which load signal drives scale decisions.
enum class ScalePolicy : std::uint8_t {
  /// Queue depth per live replica: up when the window-peak depth exceeds
  /// `queue_high` for `up_evals` consecutive evaluations, down on
  /// `queue_low`. Reacts before latency degrades, but blind to SLO slack.
  kQueueDepth,
  /// Rolling-window p99 TTFT against the fleet SLO: up when the window
  /// p99 exceeds SloConfig::ttft_ms, down when it is below half of it (or
  /// the window is empty — an idle fleet has no tail to defend).
  /// Tracks the contract directly, but lags the queue signal by the
  /// service time already committed.
  kSloTtft,
  /// Grow on either signal, shrink only when both agree — the
  /// conservative composition: capacity follows the fastest alarm and
  /// releases only when queue and tail are both quiet.
  kHybrid,
};

/// CLI-facing policy names ("queue" | "slo" | "hybrid"), shared by the
/// bench and example surfaces. Throws std::invalid_argument on an unknown
/// name.
ScalePolicy parse_scale_policy(const std::string& name);
const char* scale_policy_name(ScalePolicy policy);

struct AutoscalerConfig {
  /// Disabled by default: FleetSim then runs the static fleet unchanged
  /// (byte-identical output — the CI gate's baseline).
  bool enabled = false;
  ScalePolicy policy = ScalePolicy::kHybrid;
  /// Live-replica bounds, one rule for every fleet (a symmetric fleet is
  /// one tier holding every replica): FleetConfig::replicas must hold
  /// exactly max_replicas configs, each tier's ceiling is its own member
  /// count, and each tier's floor is `tier_min[t]` when the list is given,
  /// else min_replicas. Every tier starts at its floor.
  std::uint32_t min_replicas = 1;
  std::uint32_t max_replicas = 1;
  /// Per-tier floors for disaggregated fleets, aligned with the fleet's
  /// tier order (distinct FleetConfig::roles in first-appearance order —
  /// `--min-replicas=2,1` with `--roles=prefill,...,decode,...`). Empty
  /// (the default) gives every tier the floor min_replicas; a non-empty
  /// list must name every tier and is rejected on a symmetric fleet.
  std::vector<std::uint32_t> tier_min;
  /// Control-loop period on the shared fleet clock.
  double eval_interval_ms = 50.0;

  // ---- Queue-depth watermarks (per live replica, window-peak) ----
  double queue_high = 4.0;
  double queue_low = 0.5;

  // ---- SLO-TTFT watermarks ----
  /// Rolling TTFT sample window the p99 is computed over. The scale-up
  /// threshold is the fleet's SloConfig::ttft_ms, the scale-down one half
  /// of it.
  double ttft_window_ms = 250.0;

  // ---- Hysteresis ----
  std::uint32_t up_evals = 2;    // consecutive high evals before growing
  std::uint32_t down_evals = 4;  // consecutive low evals before shrinking
  std::uint32_t cooldown_evals = 3;  // hold-off after any scale event
};

/// Why a scale event fired (recorded in FleetResult::scale_events).
enum class ScaleTrigger : std::uint8_t {
  kQueueHigh,  // per-replica queue depth over the high-water mark
  kQueueLow,   // queue depth under the low-water mark
  kTtftHigh,   // window p99 TTFT over the SLO threshold
  kTtftLow,    // window p99 TTFT under the release threshold (or idle)
};
const char* scale_trigger_name(ScaleTrigger trigger);

/// One live-set change, in fleet-clock order. `from` -> `to` are the
/// *tier's* live counts and always differ by exactly one replica; the log
/// chains per tier and is monotone in `at` (pinned in
/// tests/test_serve_invariants.cpp). On a symmetric fleet there is exactly
/// one tier, so `from`/`to` coincide with the fleet-wide live counts and
/// the log is byte-identical to the pre-tier autoscaler's.
struct ScaleEvent {
  sim::Cycles at = 0;  // fleet clock when the decision fired
  double at_ms = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  ScaleTrigger trigger = ScaleTrigger::kQueueHigh;
  /// Which tier scaled (index into FleetResult::tiers; 0 on symmetric
  /// fleets, whose single tier is the whole fleet).
  std::uint32_t tier = 0;
};

/// The signal snapshot one evaluation consumes.
struct ScaleSignals {
  std::uint32_t live = 1;
  /// Mean over live replicas of each queue's peak depth since the last
  /// evaluation (window-scoped, not all-time — RequestQueue keeps both).
  double queue_per_live = 0;
  /// p99 of the TTFT samples inside the rolling window; meaningless when
  /// ttft_samples == 0.
  double ttft_p99_ms = 0;
  std::size_t ttft_samples = 0;
};

/// The hysteresis state machine. evaluate() is deterministic: the same
/// signal sequence always produces the same decision sequence.
class Autoscaler {
 public:
  /// `slo.ttft_ms` is the TTFT scale-up threshold; half of it is the
  /// scale-down one.
  Autoscaler(const AutoscalerConfig& config, const SloConfig& slo);

  struct Decision {
    int delta = 0;  // +1 grow, -1 shrink, 0 hold
    ScaleTrigger trigger = ScaleTrigger::kQueueHigh;  // valid when delta != 0
  };

  /// Advances the streak/cooldown state by one evaluation and returns the
  /// decision. Never steps outside [min_replicas, max_replicas].
  Decision evaluate(const ScaleSignals& signals);

  const AutoscalerConfig& config() const { return config_; }

 private:
  AutoscalerConfig config_;
  double ttft_high_ = 0;
  double ttft_low_ = 0;
  std::uint32_t up_streak_ = 0;
  std::uint32_t down_streak_ = 0;
  std::uint32_t cooldown_ = 0;
};

/// The per-tier controller config one fleet-level AutoscalerConfig
/// expands into, and the one place a tier's bounds resolve: shared knobs
/// (policy, interval, watermarks, hysteresis) copied verbatim, the floor
/// `tier_min[tier]` when the list is given and min_replicas otherwise, the
/// ceiling the tier's `pool` (its member count), and — for decode tiers —
/// the policy forced to kQueueDepth: decode replicas receive no fresh
/// arrivals, so no TTFT ever forms on them (the shared rolling window
/// samples first tokens, which are emitted on the prefill side); their
/// natural control signal is the migrated-in backlog depth. A pure
/// function, unit-tested without an engine (tests/test_autoscaler.cpp).
AutoscalerConfig tier_autoscaler_config(const AutoscalerConfig& fleet,
                                        std::size_t tier, std::uint32_t pool,
                                        bool decode_tier);

}  // namespace looplynx::serve
