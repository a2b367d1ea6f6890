// Tests for fleet-level autoscaling: the Autoscaler hysteresis state
// machine, masked LoadBalancer routing (draining replicas), the
// window-scoped control signals (RequestQueue window peak,
// util::SlidingWindow), CLI flag validation, autoscaled-fleet determinism
// (including the scale-event log), the static-fleet byte-identity
// guarantee, and the headline pin: on a bursty whale-heavy mix the
// autoscaled fleet matches the static ceiling fleet's SLO outcome at
// >= 20% fewer replica-cycles while beating the static floor fleet's p99
// TTFT (the full-size walkthrough is examples/autoscale_serving.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/autoscaler.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

// --------------------------------------------------- Autoscaler::evaluate

AutoscalerConfig controller_config() {
  AutoscalerConfig cfg;
  cfg.enabled = true;
  cfg.policy = ScalePolicy::kQueueDepth;
  cfg.min_replicas = 1;
  cfg.max_replicas = 4;
  cfg.queue_high = 4.0;
  cfg.queue_low = 0.5;
  cfg.up_evals = 2;
  cfg.down_evals = 3;
  cfg.cooldown_evals = 2;
  return cfg;
}

ScaleSignals quiet(std::uint32_t live) {
  return ScaleSignals{live, 0.0, 0.0, 0};
}

ScaleSignals busy(std::uint32_t live, double queue_per_live) {
  return ScaleSignals{live, queue_per_live, 0.0, 0};
}

TEST(AutoscalerTest, GrowsOnlyAfterConsecutiveHighEvals) {
  Autoscaler ctl(controller_config(), SloConfig{});
  EXPECT_EQ(ctl.evaluate(busy(1, 10.0)).delta, 0);  // streak 1 of 2
  const auto d = ctl.evaluate(busy(1, 10.0));
  EXPECT_EQ(d.delta, +1);
  EXPECT_EQ(d.trigger, ScaleTrigger::kQueueHigh);
}

TEST(AutoscalerTest, AnInterveningQuietEvalResetsTheStreak) {
  Autoscaler ctl(controller_config(), SloConfig{});
  EXPECT_EQ(ctl.evaluate(busy(1, 10.0)).delta, 0);
  EXPECT_EQ(ctl.evaluate(busy(1, 2.0)).delta, 0);   // inside the band
  EXPECT_EQ(ctl.evaluate(busy(1, 10.0)).delta, 0);  // streak restarts
  EXPECT_EQ(ctl.evaluate(busy(1, 10.0)).delta, +1);
}

TEST(AutoscalerTest, CooldownHoldsAfterAScaleEvent) {
  Autoscaler ctl(controller_config(), SloConfig{});
  ctl.evaluate(busy(1, 10.0));
  ASSERT_EQ(ctl.evaluate(busy(1, 10.0)).delta, +1);
  // Two cooldown evals hold even under a screaming signal...
  EXPECT_EQ(ctl.evaluate(busy(2, 50.0)).delta, 0);
  EXPECT_EQ(ctl.evaluate(busy(2, 50.0)).delta, 0);
  // ...then the streak must build again from zero.
  EXPECT_EQ(ctl.evaluate(busy(2, 50.0)).delta, 0);
  EXPECT_EQ(ctl.evaluate(busy(2, 50.0)).delta, +1);
}

TEST(AutoscalerTest, ShrinksAfterDownEvalsAndClampsAtBounds) {
  Autoscaler ctl(controller_config(), SloConfig{});
  EXPECT_EQ(ctl.evaluate(quiet(2)).delta, 0);
  EXPECT_EQ(ctl.evaluate(quiet(2)).delta, 0);
  const auto d = ctl.evaluate(quiet(2));
  EXPECT_EQ(d.delta, -1);
  EXPECT_EQ(d.trigger, ScaleTrigger::kQueueLow);
  // At the floor the down streak can never fire.
  Autoscaler floor(controller_config(), SloConfig{});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(floor.evaluate(quiet(1)).delta, 0);
  // At the ceiling the up streak can never fire.
  Autoscaler ceiling(controller_config(), SloConfig{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ceiling.evaluate(busy(4, 10.0)).delta, 0);
  }
}

TEST(AutoscalerTest, SloPolicyThresholdsComeFromTheSlo) {
  AutoscalerConfig cfg = controller_config();
  cfg.policy = ScalePolicy::kSloTtft;
  cfg.up_evals = 1;
  cfg.down_evals = 1;
  cfg.cooldown_evals = 0;
  SloConfig slo;
  slo.ttft_ms = 200.0;
  Autoscaler ctl(cfg, slo);
  // Above the SLO: grow (with the ttft trigger recorded).
  const auto up = ctl.evaluate({2, 0.0, 250.0, 8});
  EXPECT_EQ(up.delta, +1);
  EXPECT_EQ(up.trigger, ScaleTrigger::kTtftHigh);
  // Between half the SLO and the SLO: hold.
  EXPECT_EQ(ctl.evaluate({2, 0.0, 200.0, 8}).delta, 0);
  EXPECT_EQ(ctl.evaluate({2, 0.0, 100.0, 8}).delta, 0);
  // Under half the SLO: shrink.
  const auto down = ctl.evaluate({2, 0.0, 99.0, 8});
  EXPECT_EQ(down.delta, -1);
  EXPECT_EQ(down.trigger, ScaleTrigger::kTtftLow);
}

TEST(AutoscalerTest, SloPolicyTreatsAnEmptyWindowAsIdle) {
  AutoscalerConfig cfg = controller_config();
  cfg.policy = ScalePolicy::kSloTtft;
  cfg.up_evals = 1;
  cfg.down_evals = 1;
  cfg.cooldown_evals = 0;
  Autoscaler ctl(cfg, SloConfig{});
  const auto d = ctl.evaluate({3, 0.0, 0.0, 0});  // no samples
  EXPECT_EQ(d.delta, -1);
  EXPECT_EQ(d.trigger, ScaleTrigger::kTtftLow);
}

TEST(AutoscalerTest, HybridGrowsOnEitherSignalShrinksOnlyOnBoth) {
  AutoscalerConfig cfg = controller_config();
  cfg.policy = ScalePolicy::kHybrid;
  cfg.up_evals = 1;
  cfg.down_evals = 1;
  cfg.cooldown_evals = 0;
  SloConfig slo;
  slo.ttft_ms = 100.0;
  {
    Autoscaler ctl(cfg, slo);
    // Quiet queue but blown tail: still grows.
    EXPECT_EQ(ctl.evaluate({1, 0.0, 400.0, 8}).delta, +1);
  }
  {
    Autoscaler ctl(cfg, slo);
    // Queue under the low-water mark but the tail still warm (between
    // the release and alarm thresholds): hold, not shrink — shrink
    // needs both signals quiet.
    EXPECT_EQ(ctl.evaluate({2, 0.0, 60.0, 8}).delta, 0);
  }
  {
    Autoscaler ctl(cfg, slo);
    // Both quiet: shrink.
    EXPECT_EQ(ctl.evaluate({2, 0.0, 10.0, 8}).delta, -1);
  }
}

TEST(AutoscalerTest, ScalePolicyNamesRoundTrip) {
  EXPECT_EQ(parse_scale_policy("queue"), ScalePolicy::kQueueDepth);
  EXPECT_EQ(parse_scale_policy("slo"), ScalePolicy::kSloTtft);
  EXPECT_EQ(parse_scale_policy("hybrid"), ScalePolicy::kHybrid);
  EXPECT_THROW(parse_scale_policy("auto"), std::invalid_argument);
  EXPECT_STREQ(scale_policy_name(ScalePolicy::kQueueDepth), "queue");
  EXPECT_STREQ(scale_policy_name(ScalePolicy::kSloTtft), "slo");
  EXPECT_STREQ(scale_policy_name(ScalePolicy::kHybrid), "hybrid");
  EXPECT_STREQ(scale_trigger_name(ScaleTrigger::kQueueHigh), "queue-high");
  EXPECT_STREQ(scale_trigger_name(ScaleTrigger::kTtftLow), "ttft-low");
}

// ---------------------------------------- Per-tier controller expansion

TEST(TierConfigTest, ResolvesTheFloorAndCapsAtThePool) {
  AutoscalerConfig fleet = controller_config();
  fleet.policy = ScalePolicy::kHybrid;
  fleet.tier_min = {1, 2};
  const AutoscalerConfig prefill = tier_autoscaler_config(fleet, 0, 3, false);
  EXPECT_EQ(prefill.min_replicas, 1u);
  EXPECT_EQ(prefill.max_replicas, 3u);  // the tier's pool
  EXPECT_EQ(prefill.policy, ScalePolicy::kHybrid);
  EXPECT_TRUE(prefill.tier_min.empty());  // list consumed, not inherited
  const AutoscalerConfig decode = tier_autoscaler_config(fleet, 1, 2, true);
  EXPECT_EQ(decode.min_replicas, 2u);
  EXPECT_EQ(decode.max_replicas, 2u);
  // Decode tiers force the queue policy: no TTFT ever forms on them.
  EXPECT_EQ(decode.policy, ScalePolicy::kQueueDepth);
  // Shared knobs copy verbatim.
  EXPECT_DOUBLE_EQ(decode.queue_high, fleet.queue_high);
  EXPECT_EQ(decode.up_evals, fleet.up_evals);
  // A pinned tier (floor == pool) never moves in either direction.
  Autoscaler pinned(decode, SloConfig{});
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pinned.evaluate(busy(2, 50.0)).delta, 0);
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(pinned.evaluate(quiet(2)).delta, 0);
}

TEST(TierConfigTest, WithoutAListEveryTierFloorsAtMinReplicas) {
  AutoscalerConfig fleet = controller_config();
  fleet.min_replicas = 2;
  fleet.max_replicas = 4;
  const AutoscalerConfig only = tier_autoscaler_config(fleet, 0, 4, false);
  EXPECT_EQ(only.min_replicas, 2u);
  EXPECT_EQ(only.max_replicas, 4u);
  // The symmetric single-tier case: the policy is whatever was asked for.
  EXPECT_EQ(only.policy, fleet.policy);
  // Every tier of a disaggregated fleet takes the same floor.
  EXPECT_EQ(tier_autoscaler_config(fleet, 1, 3, true).min_replicas, 2u);
}

TEST(TierControllersTest, KeepIndependentStreaksAndCooldowns) {
  AutoscalerConfig fleet = controller_config();  // queue policy, up 2
  Autoscaler prefill(tier_autoscaler_config(fleet, 0, 4, false),
                     SloConfig{});
  Autoscaler decode(tier_autoscaler_config(fleet, 1, 4, true), SloConfig{});
  // The prefill tier builds its up streak while the decode tier idles at
  // its floor — the decode tier's quiet evals must not reset it.
  EXPECT_EQ(prefill.evaluate(busy(1, 10.0)).delta, 0);
  EXPECT_EQ(decode.evaluate(quiet(1)).delta, 0);
  EXPECT_EQ(prefill.evaluate(busy(1, 10.0)).delta, +1);
  // The prefill event starts ITS cooldown only: the decode tier is free
  // to fire its own transition while the prefill controller holds.
  EXPECT_EQ(prefill.evaluate(busy(2, 50.0)).delta, 0);  // cooling
  EXPECT_EQ(decode.evaluate(busy(1, 10.0)).delta, 0);
  EXPECT_EQ(decode.evaluate(busy(1, 10.0)).delta, +1);  // no shared cooldown
}

TEST(TierControllersTest, TiersCanMoveInOppositeDirectionsOnOneRound) {
  AutoscalerConfig fleet = controller_config();
  fleet.up_evals = 3;  // align with down_evals so both fire together
  Autoscaler prefill(tier_autoscaler_config(fleet, 0, 4, false),
                     SloConfig{});
  Autoscaler decode(tier_autoscaler_config(fleet, 1, 4, true), SloConfig{});
  // Same shared-clock eval rounds, opposite verdicts: a prompt burst
  // hammers the prefill tier while the decode backlog drains.
  int up_delta = 0, down_delta = 0;
  for (int round = 0; round < 3; ++round) {
    up_delta = prefill.evaluate(busy(1, 10.0)).delta;
    down_delta = decode.evaluate(quiet(3)).delta;
  }
  EXPECT_EQ(up_delta, +1);    // the prefill tier grew...
  EXPECT_EQ(down_delta, -1);  // ...on the round the decode tier shrank
}

// ------------------------------------------------- Masked load balancing

TEST(MaskedBalancerTest, RoundRobinCyclesOverTheActiveSubset) {
  LoadBalancer lb(BalancerPolicy::kRoundRobin);
  // Replicas 2 and 3 are masked (draining): the cycle walks {0, 1}.
  const std::vector<LoadBalancer::ReplicaLoad> masked = {
      {0, 0, true}, {0, 0, true}, {0, 0, false}, {0, 0, false}};
  EXPECT_EQ(lb.pick(masked), 0u);
  EXPECT_EQ(lb.pick(masked), 1u);
  EXPECT_EQ(lb.pick(masked), 0u);
  // Unmasking resumes over the full set, counter intact.
  const std::vector<LoadBalancer::ReplicaLoad> all = {
      {0, 0, true}, {0, 0, true}, {0, 0, true}, {0, 0, true}};
  EXPECT_EQ(lb.pick(all), 3u);  // counter is at 3 after three picks
  EXPECT_EQ(lb.pick(all), 0u);
}

TEST(MaskedBalancerTest, JsqIgnoresMaskedReplicasAndTiesOnLowestActive) {
  LoadBalancer lb(BalancerPolicy::kJoinShortestQueue);
  // The idle replica 0 is draining: the pick must go to the least-loaded
  // *active* replica, and ties resolve to the lowest active index.
  EXPECT_EQ(lb.pick({{0, 0, false}, {5, 0, true}, {3, 0, true}}), 2u);
  EXPECT_EQ(lb.pick({{0, 0, false}, {3, 0, true}, {3, 0, true}}), 1u);
  // A fully unmasked tie still goes to replica 0 (the PR 4 contract).
  EXPECT_EQ(lb.pick({{3, 0, true}, {3, 0, true}, {3, 0, true}}), 0u);
}

TEST(MaskedBalancerTest, KvAwareIgnoresMaskedPoolsAndTiesOnLowestActive) {
  LoadBalancer lb(BalancerPolicy::kKvAware);
  // The biggest pool is masked; the best active pool wins.
  EXPECT_EQ(lb.pick({{0, 900, false}, {0, 100, true}, {0, 300, true}}), 2u);
  // Equal active pools fall back to JSQ over active replicas...
  EXPECT_EQ(lb.pick({{1, 100, false}, {9, 100, true}, {2, 100, true}}), 2u);
  // ...and a full tie lands on the lowest active index.
  EXPECT_EQ(lb.pick({{2, 100, false}, {2, 100, true}, {2, 100, true}}), 1u);
}

// ------------------------------------------------ Window-scoped signals

TEST(WindowSignalTest, QueueWindowPeakResetsWithoutTouchingAllTimePeak) {
  RequestQueue q(8);
  Request a(0, workload::make_scenario(4, 4));
  Request b(1, workload::make_scenario(4, 4));
  Request c(2, workload::make_scenario(4, 4));
  q.push(&a);
  q.push(&b);
  q.push(&c);
  q.pop();
  q.pop();
  // Window saw depth 3 even though only 1 is queued now.
  EXPECT_EQ(q.take_window_peak(), 3u);
  // The window restarts at the current depth; the all-time peak stays.
  EXPECT_EQ(q.take_window_peak(), 1u);
  EXPECT_EQ(q.peak_depth(), 3u);
  q.pop();
  EXPECT_EQ(q.take_window_peak(), 1u);  // depth before the pop
  EXPECT_EQ(q.take_window_peak(), 0u);
}

TEST(WindowSignalTest, SlidingWindowEvictsAndMatchesBatchPercentile) {
  util::SlidingWindow w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.percentile(99.0), 0.0);
  for (int i = 0; i < 100; ++i) {
    w.push(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(w.count(), 100u);
  // Slide the trailing edge to t=50: samples 0..49 leave.
  w.evict_before(50.0);
  EXPECT_EQ(w.count(), 50u);
  std::vector<double> window_values;
  for (int i = 50; i < 100; ++i) window_values.push_back(i);
  EXPECT_DOUBLE_EQ(w.percentile(99.0),
                   util::percentile(window_values, 99.0));
  EXPECT_DOUBLE_EQ(w.percentile(50.0),
                   util::percentile(window_values, 50.0));
  w.evict_before(1000.0);
  EXPECT_TRUE(w.empty());
}

// ------------------------------------------------------- CLI validation

util::Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return util::Cli(static_cast<int>(args.size()), args.data(),
                   {"test", scheduler_flags({})});
}

TEST(AutoscaleCliTest, ParsesPoliciesAndBounds) {
  const SchedulerCliOptions off = parse_scheduler_cli(make_cli({}));
  EXPECT_FALSE(off.autoscale.enabled);
  EXPECT_FALSE(off.fleet());

  const SchedulerCliOptions queue = parse_scheduler_cli(make_cli(
      {"--autoscale=queue", "--min-replicas=2", "--max-replicas=6",
       "--scale-interval-ms=10"}));
  EXPECT_TRUE(queue.autoscale.enabled);
  EXPECT_EQ(queue.autoscale.policy, ScalePolicy::kQueueDepth);
  EXPECT_EQ(queue.autoscale.min_replicas, 2u);
  EXPECT_EQ(queue.autoscale.max_replicas, 6u);
  EXPECT_DOUBLE_EQ(queue.autoscale.eval_interval_ms, 10.0);
  EXPECT_TRUE(queue.fleet());
  EXPECT_EQ(queue.fleet_width(), 6u);

  // Bare --autoscale selects hybrid; space-separated values parse too.
  const SchedulerCliOptions bare = parse_scheduler_cli(
      make_cli({"--autoscale", "--min-replicas", "2", "--max-replicas",
                "3"}));
  EXPECT_EQ(bare.autoscale.policy, ScalePolicy::kHybrid);
  EXPECT_EQ(bare.autoscale.min_replicas, 2u);
  const SchedulerCliOptions spaced =
      parse_scheduler_cli(make_cli({"--autoscale", "slo"}));
  EXPECT_EQ(spaced.autoscale.policy, ScalePolicy::kSloTtft);

  // --balancer composes with --autoscale (no --replicas needed).
  const SchedulerCliOptions balanced = parse_scheduler_cli(
      make_cli({"--autoscale=hybrid", "--balancer=jsq"}));
  EXPECT_EQ(balanced.balancer, BalancerPolicy::kJoinShortestQueue);
}

TEST(AutoscaleCliTest, RejectsFixedFleetConflict) {
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue", "--replicas=4"})),
               std::invalid_argument);
}

TEST(AutoscaleCliTest, RejectsInvertedOrDegenerateBounds) {
  // min > max
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue", "--min-replicas=4",
                             "--max-replicas=2"})),
               std::invalid_argument);
  // min < 1
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue", "--min-replicas=0"})),
               std::invalid_argument);
  // zero / negative interval
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue", "--scale-interval-ms=0"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue",
                             "--scale-interval-ms=-5"})),
               std::invalid_argument);
  // unknown policy
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--autoscale=never"})),
               std::invalid_argument);
}

TEST(AutoscaleCliTest, RejectsAutoscaleKnobsWithoutAutoscale) {
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--min-replicas=2"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--max-replicas=4"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--scale-interval-ms=10"})),
               std::invalid_argument);
}

// --------------------------------------------------- Fleet validation

ServingConfig cosim_base() {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"small",
                                  {{workload::make_scenario(8, 16), 0.7},
                                   {workload::make_scenario(16, 8), 0.3}}};
  cfg.traffic.num_requests = 24;
  cfg.traffic.arrival_rate_per_s = 200.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  return cfg;
}

TEST(AutoscaledFleetTest, ValidatesAutoscaleConfig) {
  const ServingConfig base = cosim_base();
  const auto with = [&](auto mutate) {
    FleetConfig cfg = FleetConfig::homogeneous(base, 3);
    cfg.autoscale.enabled = true;
    cfg.autoscale.min_replicas = 1;
    cfg.autoscale.max_replicas = 3;
    mutate(cfg.autoscale);
    return cfg;
  };
  EXPECT_NO_THROW(FleetSim{with([](AutoscalerConfig&) {})});
  EXPECT_THROW(FleetSim{with([](AutoscalerConfig& a) { a.min_replicas = 0; })},
               std::invalid_argument);
  EXPECT_THROW(FleetSim{with([](AutoscalerConfig& a) { a.min_replicas = 4; })},
               std::invalid_argument);
  EXPECT_THROW(
      FleetSim{with([](AutoscalerConfig& a) { a.max_replicas = 2; })},
      std::invalid_argument);  // pool size mismatch
  // A symmetric fleet is one tier, floored by min_replicas: a per-tier
  // floor list has no second tier to name and is rejected, even when its
  // one entry agrees with min_replicas.
  EXPECT_THROW(FleetSim{with([](AutoscalerConfig& a) { a.tier_min = {1}; })},
               std::invalid_argument);
  EXPECT_THROW(
      FleetSim{with([](AutoscalerConfig& a) { a.eval_interval_ms = 0; })},
      std::invalid_argument);
  EXPECT_THROW(
      FleetSim{with([](AutoscalerConfig& a) { a.ttft_window_ms = 0; })},
      std::invalid_argument);
  EXPECT_THROW(FleetSim{with([](AutoscalerConfig& a) {
                 a.queue_low = a.queue_high;
               })},
               std::invalid_argument);
  EXPECT_THROW(FleetSim{with([](AutoscalerConfig& a) { a.up_evals = 0; })},
               std::invalid_argument);
}

// ----------------------------------------- Determinism + static identity

FleetConfig bursty_autoscaled(ScalePolicy policy) {
  ServingConfig base = cosim_base();
  base.model.max_seq_len = 256;
  base.traffic.mix = workload::Mix{"skewed",
                                   {{workload::make_scenario(8, 16), 0.8},
                                    {workload::make_scenario(192, 48), 0.2}}};
  base.traffic.process = ArrivalProcess::kBursty;
  base.traffic.num_requests = 48;
  base.traffic.arrival_rate_per_s = 400.0;
  base.traffic.burst_factor = 4.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 0.05;
  base.scheduler.max_in_flight = 6;
  base.keep_request_records = true;
  FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  cfg.autoscale.enabled = true;
  cfg.autoscale.policy = policy;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 3;
  cfg.autoscale.eval_interval_ms = 2.0;
  cfg.autoscale.ttft_window_ms = 10.0;
  cfg.autoscale.queue_high = 1.5;
  cfg.autoscale.queue_low = 0.25;
  cfg.autoscale.up_evals = 1;
  cfg.autoscale.down_evals = 2;
  cfg.autoscale.cooldown_evals = 1;
  return cfg;
}

void expect_identical_scaled(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.fleet.offered, b.fleet.offered);
  EXPECT_EQ(a.fleet.completed, b.fleet.completed);
  EXPECT_EQ(a.fleet.iterations, b.fleet.iterations);
  EXPECT_EQ(a.fleet.duration_s, b.fleet.duration_s);
  EXPECT_EQ(a.fleet.ttft_ms.p99, b.fleet.ttft_ms.p99);
  EXPECT_EQ(a.fleet.slo_good, b.fleet.slo_good);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    EXPECT_EQ(a.replicas[i].offered, b.replicas[i].offered);
  }
  EXPECT_EQ(a.replica_cycles, b.replica_cycles);
  EXPECT_EQ(a.mean_live_replicas, b.mean_live_replicas);
  ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
  for (std::size_t i = 0; i < a.scale_events.size(); ++i) {
    EXPECT_EQ(a.scale_events[i].at, b.scale_events[i].at);
    EXPECT_EQ(a.scale_events[i].from, b.scale_events[i].from);
    EXPECT_EQ(a.scale_events[i].to, b.scale_events[i].to);
    EXPECT_EQ(a.scale_events[i].trigger, b.scale_events[i].trigger);
    EXPECT_EQ(a.scale_events[i].tier, b.scale_events[i].tier);
  }
  // Every record field for field: replica, live count and cycle stamps.
  EXPECT_EQ(a.fleet.requests, b.fleet.requests);
}

TEST(AutoscaledFleetTest, RunsAreDeterministicIncludingTheScaleLog) {
  for (const ScalePolicy policy :
       {ScalePolicy::kQueueDepth, ScalePolicy::kSloTtft,
        ScalePolicy::kHybrid}) {
    const FleetConfig cfg = bursty_autoscaled(policy);
    const FleetResult a = FleetSim(cfg).run();
    const FleetResult b = FleetSim(cfg).run();
    expect_identical_scaled(a, b);
    EXPECT_EQ(a.fleet.completed + a.fleet.rejected, a.fleet.offered);
  }
}

TEST(AutoscaledFleetTest, DisaggregatedTierRunsAreDeterministic) {
  FleetConfig cfg = bursty_autoscaled(ScalePolicy::kHybrid);
  cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
               ReplicaRole::kDecode};
  cfg.kv_link.bytes_per_cycle = 32.0;
  cfg.autoscale.tier_min = {1, 1};
  const FleetResult a = FleetSim(cfg).run();
  const FleetResult b = FleetSim(cfg).run();
  expect_identical_scaled(a, b);
  EXPECT_EQ(a.fleet.completed + a.fleet.rejected, a.fleet.offered);
  // Scale events carry their tier, and every tier id is in range.
  for (const ScaleEvent& e : a.scale_events) EXPECT_LT(e.tier, 2u);
}

TEST(AutoscaledFleetTest, TheControlLoopActuallyScalesUpAndDrainsDown) {
  const FleetConfig cfg = bursty_autoscaled(ScalePolicy::kQueueDepth);
  const FleetResult r = FleetSim(cfg).run();
  ASSERT_FALSE(r.scale_events.empty());
  EXPECT_GT(r.peak_live_replicas, 1u);
  // Work really ran beyond the floor replica...
  std::uint64_t beyond_floor = 0;
  for (const RequestRecord& rec : r.fleet.requests) {
    if (rec.replica > 0) ++beyond_floor;
  }
  EXPECT_GT(beyond_floor, 0u);
  // ...and graceful drain means every routed request still finished.
  EXPECT_EQ(r.fleet.completed + r.fleet.rejected, r.fleet.offered);
}

/// Disabling the autoscaler must leave the static fleet bit-identical to
/// a config that never heard of autoscaling — the serve_load no-flag
/// byte-identity gate reduces to this.
TEST(AutoscaledFleetTest, DisabledAutoscaleIsAStaticFleetBitForBit) {
  ServingConfig base = cosim_base();
  base.keep_request_records = true;
  const FleetConfig plain = FleetConfig::homogeneous(base, 2);
  FleetConfig disabled = plain;
  disabled.autoscale = AutoscalerConfig{};  // enabled == false
  ASSERT_FALSE(disabled.autoscale.enabled);
  const FleetResult a = FleetSim(plain).run();
  const FleetResult b = FleetSim(disabled).run();
  expect_identical_scaled(a, b);
  EXPECT_TRUE(a.scale_events.empty());
  EXPECT_FALSE(a.autoscaled);
  // Static cost accounting: the whole pool, the whole makespan.
  EXPECT_EQ(a.mean_live_replicas, 2.0);
  EXPECT_DOUBLE_EQ(a.replica_seconds, 2.0 * a.fleet.duration_s);
}

// ------------------------------------------------------ The headline pin

/// Scaled-down twin of examples/autoscale_serving.cpp: on a bursty
/// whale-heavy mix at a fixed seed, the autoscaled fleet serves at least
/// as many requests within SLO as the static ceiling fleet, consumes
/// >= 20% fewer replica-cycles, and strictly beats the static floor
/// fleet's p99 TTFT.
TEST(AutoscaledFleetTest, BeatsStaticFleetsOnBurstyWhaleTraffic) {
  ServingConfig base = cosim_base();
  base.model.max_seq_len = 256;
  base.traffic.mix = workload::Mix{"whale-heavy",
                                   {{workload::make_scenario(8, 16), 0.85},
                                    {workload::make_scenario(192, 48),
                                     0.15}}};
  base.traffic.process = ArrivalProcess::kBursty;
  base.traffic.num_requests = 96;
  base.traffic.arrival_rate_per_s = 60.0;
  base.traffic.burst_factor = 6.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 0.4;
  base.traffic.seed = 11;
  base.scheduler.max_in_flight = 4;
  base.slo.ttft_ms = 40.0;
  base.slo.token_ms = 5.0;

  const core::StepCostModel costs(base.arch, base.model,
                                  base.cost_probe_stride);
  const auto run_static = [&](std::uint32_t width) {
    return FleetSim(FleetConfig::homogeneous(
                        base, width, BalancerPolicy::kJoinShortestQueue),
                    costs)
        .run();
  };
  const FleetResult floor_fleet = run_static(1);
  const FleetResult ceiling_fleet = run_static(4);

  FleetConfig scaled_cfg = FleetConfig::homogeneous(
      base, 4, BalancerPolicy::kJoinShortestQueue);
  scaled_cfg.autoscale.enabled = true;
  scaled_cfg.autoscale.policy = ScalePolicy::kHybrid;
  scaled_cfg.autoscale.min_replicas = 1;
  scaled_cfg.autoscale.max_replicas = 4;
  scaled_cfg.autoscale.eval_interval_ms = 1.0;
  scaled_cfg.autoscale.ttft_window_ms = 20.0;
  scaled_cfg.autoscale.queue_high = 2.0;
  scaled_cfg.autoscale.queue_low = 0.25;
  scaled_cfg.autoscale.up_evals = 2;
  scaled_cfg.autoscale.down_evals = 6;
  scaled_cfg.autoscale.cooldown_evals = 2;
  const FleetResult scaled = FleetSim(scaled_cfg, costs).run();

  // The comparison is meaningful only if the fleet actually flexed well
  // beyond its floor.
  ASSERT_FALSE(scaled.scale_events.empty());
  EXPECT_GE(scaled.peak_live_replicas, 3u);

  EXPECT_GE(scaled.fleet.slo_good, ceiling_fleet.fleet.slo_good);
  EXPECT_LE(static_cast<double>(scaled.replica_cycles),
            0.8 * static_cast<double>(ceiling_fleet.replica_cycles));
  EXPECT_LT(scaled.fleet.ttft_ms.p99, floor_fleet.fleet.ttft_ms.p99);
}

}  // namespace
}  // namespace looplynx::serve
