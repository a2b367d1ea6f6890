// Tests for the multi-deployment fleet layer: LoadBalancer routing rules
// and tie-breaks, FleetSim determinism, the width-1 fleet's rollup, the
// fleet rollup rules, the JSQ-beats-round-robin acceptance pin on a skewed
// mix, heterogeneous fleets, and the fleet CLI flag validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/traffic.hpp"
#include "util/cli.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

core::ArchConfig test_arch() { return core::ArchConfig::one_node(); }

/// Cosim dimensions with a context window wide enough for long-prompt
/// whale scenarios.
model::ModelConfig fleet_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

/// Small shapes that fit the cosim model's 96-token context.
workload::Mix small_mix() {
  return workload::Mix{"test",
                       {{workload::make_scenario(8, 16), 0.5},
                        {workload::make_scenario(16, 8), 0.3},
                        {workload::make_scenario(4, 32), 0.2}}};
}

ServingConfig base_config() {
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = small_mix();
  cfg.traffic.num_requests = 24;
  cfg.traffic.arrival_rate_per_s = 200.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  return cfg;
}

/// Mostly-small traffic with a fat tail of [192:48] whales that occupy a
/// replica an order of magnitude longer — the shape round-robin routing
/// degrades on (consecutive whales land on one replica by arrival parity)
/// and join-shortest-queue exists to fix.
ServingConfig skewed_config() {
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = fleet_model();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"skewed",
                                  {{workload::make_scenario(8, 16), 0.8},
                                   {workload::make_scenario(192, 48), 0.2}}};
  cfg.traffic.num_requests = 160;
  cfg.traffic.arrival_rate_per_s = 400.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  // SLOs sized to the cosim deployment, so goodput discriminates between
  // routing policies instead of saturating at "everyone missed".
  cfg.slo.ttft_ms = 5.0;
  cfg.slo.token_ms = 2.0;
  return cfg;
}

/// Bit-identical, not approximately equal: the engine guarantees
/// reproducible event ordering and all arithmetic is deterministic.
void expect_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.decode_tokens, b.decode_tokens);
  EXPECT_EQ(a.total_tokens, b.total_tokens);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.throughput_tok_s, b.throughput_tok_s);
  EXPECT_EQ(a.goodput_req_s, b.goodput_req_s);
  EXPECT_EQ(a.ttft_ms.p50, b.ttft_ms.p50);
  EXPECT_EQ(a.ttft_ms.p99, b.ttft_ms.p99);
  EXPECT_EQ(a.token_ms.p50, b.token_ms.p50);
  EXPECT_EQ(a.e2e_ms.p99, b.e2e_ms.p99);
  EXPECT_EQ(a.queue_wait_ms.p99, b.queue_wait_ms.p99);
  EXPECT_EQ(a.inter_token_gap_ms.p99, b.inter_token_gap_ms.p99);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.kv_peak_occupancy, b.kv_peak_occupancy);
  EXPECT_EQ(a.kv_stall_events, b.kv_stall_events);
  EXPECT_EQ(a.kv_over_release_events, b.kv_over_release_events);
  EXPECT_EQ(a.prefill_chunk_steps, b.prefill_chunk_steps);
  EXPECT_EQ(a.chunked_prompts, b.chunked_prompts);
  EXPECT_EQ(a.decode_stall_iterations, b.decode_stall_iterations);
  EXPECT_EQ(a.decode_stall_ms, b.decode_stall_ms);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.recompute_tokens, b.recompute_tokens);
  EXPECT_EQ(a.recompute_ms, b.recompute_ms);
  EXPECT_EQ(a.kv_peak_used_blocks, b.kv_peak_used_blocks);
  EXPECT_EQ(a.kv_peak_frag_tokens, b.kv_peak_frag_tokens);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].replica, b.requests[i].replica);
    EXPECT_EQ(a.requests[i].ttft_ms, b.requests[i].ttft_ms);
    EXPECT_EQ(a.requests[i].e2e_ms, b.requests[i].e2e_ms);
  }
}

void expect_identical(const FleetResult& a, const FleetResult& b) {
  expect_identical(a.fleet, b.fleet);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    expect_identical(a.replicas[i], b.replicas[i]);
  }
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.load_imbalance, b.load_imbalance);
  EXPECT_EQ(a.ttft_p99_spread_ms, b.ttft_p99_spread_ms);
}

// ------------------------------------------------------------ LoadBalancer

TEST(LoadBalancerTest, RoundRobinCyclesBlindToLoad) {
  LoadBalancer lb(BalancerPolicy::kRoundRobin);
  const std::vector<LoadBalancer::ReplicaLoad> loads = {
      {100, 0}, {0, 500}, {7, 7}};
  EXPECT_EQ(lb.pick(loads), 0u);  // load is ignored by design
  EXPECT_EQ(lb.pick(loads), 1u);
  EXPECT_EQ(lb.pick(loads), 2u);
  EXPECT_EQ(lb.pick(loads), 0u);
}

TEST(LoadBalancerTest, JsqPicksFewestOutstandingTieLowestIndex) {
  LoadBalancer lb(BalancerPolicy::kJoinShortestQueue);
  EXPECT_EQ(lb.pick({{3, 0}, {1, 0}, {2, 0}}), 1u);
  // Ties resolve to the lowest index — the fleet's determinism contract.
  EXPECT_EQ(lb.pick({{2, 0}, {2, 0}, {2, 0}}), 0u);
  EXPECT_EQ(lb.pick({{5, 0}, {2, 0}, {2, 0}}), 1u);
  // Free KV is irrelevant to JSQ.
  EXPECT_EQ(lb.pick({{1, 0}, {1, 999}}), 0u);
}

TEST(LoadBalancerTest, KvAwarePicksMostFreeTokensThenJsqThenIndex) {
  LoadBalancer lb(BalancerPolicy::kKvAware);
  EXPECT_EQ(lb.pick({{0, 100}, {0, 300}, {0, 200}}), 1u);
  // Equal pools fall back to join-shortest-queue...
  EXPECT_EQ(lb.pick({{4, 100}, {2, 100}}), 1u);
  // ...and a full tie resolves to the lowest index.
  EXPECT_EQ(lb.pick({{2, 100}, {2, 100}, {2, 100}}), 0u);
  // More free KV wins even against a shorter queue: KV is the
  // admission-gating resource.
  EXPECT_EQ(lb.pick({{0, 100}, {9, 200}}), 1u);
}

// ------------------------------------------------- Single-replica identity

/// A width-1 fleet is how every caller runs a lone replica. Its rollup is
/// built by the same summary as replicas[0], so the two agree bit for bit
/// apart from the request records, which live on the rollup only; and with
/// one replica there is nothing to balance, so rr, jsq and kv routing give
/// identical runs. The CLI surfaces report FleetResult::fleet at every
/// width, which keeps single-replica output byte-stable. The cases span
/// Poisson arrivals, bursty arrivals, and paged KV with recompute
/// preemption (the whole eviction path through the replica machinery).
TEST(FleetSimTest, SingleReplicaFleetRollupIsItsReplica) {
  struct Case {
    const char* name;
    ServingConfig cfg;
    bool preempts = false;  // the config must actually evict
  };
  std::vector<Case> cases;
  cases.push_back({"open", base_config()});

  ServingConfig bursty = base_config();
  bursty.traffic.process = ArrivalProcess::kBursty;
  bursty.traffic.burst_period_s = 0.05;
  cases.push_back({"bursty", bursty});

  ServingConfig paged = base_config();
  paged.scheduler.policy = BatchPolicy::kChunkedMixed;
  paged.scheduler.max_tokens_per_iter = 16;
  paged.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  paged.kv_block_tokens = 4;
  paged.traffic.arrival_rate_per_s = 2000.0;
  KvBlockManager probe(paged.arch, paged.model, 1);
  paged.kv_budget_bytes_per_node = 96 * probe.bytes_per_token_per_node();
  cases.push_back({"paged-recompute", paged, /*preempts=*/true});

  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.cfg.keep_request_records = true;
    const FleetResult rr = FleetSim(FleetConfig::homogeneous(c.cfg, 1)).run();
    for (const BalancerPolicy policy : {BalancerPolicy::kJoinShortestQueue,
                                        BalancerPolicy::kKvAware}) {
      SCOPED_TRACE(balancer_policy_name(policy));
      expect_identical(
          FleetSim(FleetConfig::homogeneous(c.cfg, 1, policy)).run(), rr);
    }
    ASSERT_EQ(rr.replicas.size(), 1u);
    EXPECT_TRUE(rr.replicas[0].requests.empty());
    EXPECT_EQ(rr.fleet.requests.size(), rr.fleet.offered);
    FleetMetrics bare = rr.fleet;
    bare.requests.clear();
    expect_identical(rr.replicas[0], bare);
    EXPECT_EQ(rr.load_imbalance, 1.0);
    EXPECT_EQ(rr.ttft_p99_spread_ms, 0.0);
    if (c.preempts) {
      EXPECT_GT(rr.fleet.preemptions, 0u);  // the path was exercised
    }
  }
}

/// The rollup rules on a fleet whose replicas differ: counters sum,
/// per-replica peaks take the worst replica, latency samples pool (so
/// every summary's count is the sum of the replicas'), and the request
/// records, kept on the rollup only, split by replica into each replica's
/// completions and sheds.
TEST(FleetSimTest, RollupPoolsEveryReplica) {
  ServingConfig base;
  base.arch = test_arch();
  base.model = fleet_model();
  base.cost_probe_stride = 16;
  ChatTrafficConfig chat;
  chat.conversations = 6;
  chat.turns = 3;
  chat.system_prompt_tokens = 24;
  chat.user_turn_tokens = 8;
  chat.reply_tokens = 8;
  base.traffic.scripted_shapes = chat_turn_shapes(chat);
  base.traffic.num_requests =
      static_cast<std::uint32_t>(base.traffic.scripted_shapes.size());
  base.traffic.arrival_rate_per_s = 2000.0;
  base.traffic.seed = 17;
  base.scheduler.max_batch = 4;
  base.scheduler.policy = BatchPolicy::kChunkedMixed;
  base.scheduler.max_tokens_per_iter = 16;
  base.scheduler.preempt = PreemptPolicy::kRecomputeCostAware;
  base.kv_block_tokens = 4;
  base.prefix_cache = true;
  base.kv_swap = true;
  base.keep_request_records = true;
  KvBlockManager probe(base.arch, base.model, 1);

  FleetConfig cfg;
  for (const std::uint64_t tokens : {96u, 64u, 160u}) {
    ServingConfig replica = base;
    replica.kv_budget_bytes_per_node =
        tokens * probe.bytes_per_token_per_node();
    cfg.replicas.push_back(replica);
  }
  cfg.traffic = base.traffic;
  cfg.balancer = BalancerPolicy::kJoinShortestQueue;
  const FleetResult r = FleetSim(cfg).run();
  const FleetMetrics& fleet = r.fleet;
  ASSERT_EQ(r.replicas.size(), 3u);

  const auto sum = [&](auto field) {
    std::remove_cvref_t<decltype(fleet.*field)> total{};
    for (const FleetMetrics& rm : r.replicas) total += rm.*field;
    return total;
  };
  const auto worst = [&](auto field) {
    std::remove_cvref_t<decltype(fleet.*field)> peak{};
    for (const FleetMetrics& rm : r.replicas) peak = std::max(peak, rm.*field);
    return peak;
  };
  for (const auto field :
       {&FleetMetrics::offered, &FleetMetrics::completed,
        &FleetMetrics::rejected, &FleetMetrics::slo_good,
        &FleetMetrics::decode_tokens, &FleetMetrics::total_tokens,
        &FleetMetrics::iterations, &FleetMetrics::prefill_chunk_steps,
        &FleetMetrics::chunked_prompts, &FleetMetrics::decode_stall_iterations,
        &FleetMetrics::kv_stall_events, &FleetMetrics::kv_over_release_events,
        &FleetMetrics::kv_blocks_in_use_at_end,
        &FleetMetrics::kv_peak_frag_tokens, &FleetMetrics::preemptions,
        &FleetMetrics::recompute_tokens, &FleetMetrics::cache_lookups,
        &FleetMetrics::cache_lookup_tokens, &FleetMetrics::cache_hit_requests,
        &FleetMetrics::cache_hit_tokens, &FleetMetrics::saved_prefill_cycles,
        &FleetMetrics::cache_insert_blocks, &FleetMetrics::cache_evict_blocks,
        &FleetMetrics::cache_cow_events, &FleetMetrics::cache_dedup_blocks,
        &FleetMetrics::cache_swap_out_blocks,
        &FleetMetrics::cache_swap_in_blocks,
        &FleetMetrics::cache_blocks_at_end, &FleetMetrics::prefill_cycles}) {
    EXPECT_EQ(fleet.*field, sum(field));
  }
  EXPECT_EQ(fleet.kv_capacity_blocks, sum(&FleetMetrics::kv_capacity_blocks));
  EXPECT_EQ(fleet.kv_peak_used_blocks,
            sum(&FleetMetrics::kv_peak_used_blocks));
  EXPECT_EQ(fleet.saved_prefill_ms, sum(&FleetMetrics::saved_prefill_ms));
  EXPECT_EQ(fleet.cache_swap_ms, sum(&FleetMetrics::cache_swap_ms));
  EXPECT_EQ(fleet.peak_queue_depth, worst(&FleetMetrics::peak_queue_depth));
  EXPECT_EQ(fleet.kv_peak_occupancy, worst(&FleetMetrics::kv_peak_occupancy));
  // Utilization averages over the replicas (one shared makespan).
  EXPECT_NEAR(fleet.busy_fraction, sum(&FleetMetrics::busy_fraction) / 3.0,
              1e-12);
  // The concurrent peak lies between the worst replica and the sum.
  EXPECT_GE(fleet.peak_in_flight, worst(&FleetMetrics::peak_in_flight));
  EXPECT_LE(fleet.peak_in_flight, sum(&FleetMetrics::peak_in_flight));

  for (const auto summary :
       {&FleetMetrics::ttft_ms, &FleetMetrics::token_ms, &FleetMetrics::e2e_ms,
        &FleetMetrics::queue_wait_ms, &FleetMetrics::inter_token_gap_ms}) {
    std::size_t count = 0;
    for (const FleetMetrics& rm : r.replicas) count += (rm.*summary).count;
    EXPECT_EQ((fleet.*summary).count, count);
  }

  // The records live on the rollup only, id-sorted; partitioned by their
  // `replica`, they account for each replica's own completions and sheds.
  ASSERT_EQ(fleet.requests.size(), fleet.offered);
  std::vector<std::uint64_t> done(r.replicas.size(), 0);
  std::vector<std::uint64_t> shed(r.replicas.size(), 0);
  for (std::size_t i = 0; i < fleet.requests.size(); ++i) {
    const RequestRecord& rec = fleet.requests[i];
    if (i > 0) {
      EXPECT_LT(fleet.requests[i - 1].id, rec.id);
    }
    ASSERT_LT(rec.replica, r.replicas.size());
    ++(rec.rejected ? shed : done)[rec.replica];
  }
  for (std::size_t i = 0; i < r.replicas.size(); ++i) {
    EXPECT_TRUE(r.replicas[i].requests.empty());
    EXPECT_EQ(done[i], r.replicas[i].completed);
    EXPECT_EQ(shed[i], r.replicas[i].rejected);
  }

  // The fixture exercises what it claims to: unequal pools, every replica
  // serving, cache hits, swap-outs, preemptions and sheds, and a worst
  // queue that is not replica 0's.
  EXPECT_NE(r.replicas[0].kv_capacity_blocks,
            r.replicas[2].kv_capacity_blocks);
  for (const FleetMetrics& rm : r.replicas) EXPECT_GT(rm.completed, 0u);
  EXPECT_GT(fleet.cache_hit_tokens, 0u);
  EXPECT_GT(fleet.cache_swap_out_blocks, 0u);
  EXPECT_GT(fleet.preemptions, 0u);
  EXPECT_GT(fleet.rejected, 0u);
  EXPECT_GT(fleet.peak_queue_depth, r.replicas[0].peak_queue_depth);
}

// ------------------------------------------------------------ Determinism

TEST(FleetSimTest, SameConfigSameResultAcrossPolicies) {
  ServingConfig cfg = skewed_config();
  cfg.keep_request_records = true;
  for (const BalancerPolicy policy :
       {BalancerPolicy::kRoundRobin, BalancerPolicy::kJoinShortestQueue,
        BalancerPolicy::kKvAware}) {
    const FleetConfig fleet_cfg = FleetConfig::homogeneous(cfg, 3, policy);
    const FleetSim sim(fleet_cfg);
    const FleetResult a = sim.run();
    const FleetResult b = sim.run();                 // same instance
    const FleetResult c = FleetSim(fleet_cfg).run();  // fresh cost probes
    expect_identical(a, b);
    expect_identical(a, c);
    EXPECT_EQ(a.fleet.offered, cfg.traffic.num_requests);
    EXPECT_EQ(a.fleet.completed + a.fleet.rejected, a.fleet.offered);
  }
}

TEST(FleetSimTest, PagedPreemptingFleetIsDeterministic) {
  ServingConfig cfg = skewed_config();
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  cfg.kv_block_tokens = 4;
  cfg.traffic.arrival_rate_per_s = 1200.0;
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  // Room for one whole whale footprint plus change per replica: paged
  // admission overcommits on decode growth and must evict.
  cfg.kv_budget_bytes_per_node = 288 * probe.bytes_per_token_per_node();
  const FleetConfig fleet_cfg =
      FleetConfig::homogeneous(cfg, 2, BalancerPolicy::kKvAware);
  const FleetResult a = FleetSim(fleet_cfg).run();
  const FleetResult b = FleetSim(fleet_cfg).run();
  expect_identical(a, b);
  EXPECT_GT(a.fleet.preemptions, 0u);  // eviction ran on a fleet replica
}

// ---------------------------------------------------------------- Routing

TEST(FleetSimTest, RoundRobinSplitsArrivalsExactlyEvenly) {
  const ServingConfig cfg = base_config();  // 24 requests
  const FleetResult r =
      FleetSim(FleetConfig::homogeneous(cfg, 3, BalancerPolicy::kRoundRobin))
          .run();
  ASSERT_EQ(r.routed.size(), 3u);
  EXPECT_EQ(r.routed[0], 8u);
  EXPECT_EQ(r.routed[1], 8u);
  EXPECT_EQ(r.routed[2], 8u);
  EXPECT_DOUBLE_EQ(r.load_imbalance, 1.0);
  EXPECT_EQ(r.fleet.completed, 24u);
}

TEST(FleetSimTest, BalancerTieBreakIsLowestIndexOnSimultaneousBurst) {
  // Two arrivals in the same cycle on two idle, identical replicas: the
  // first must go to replica 0 (all keys tie -> lowest index), and the
  // second to replica 1 (replica 0 now has one outstanding request) —
  // under both load-aware policies. Pinned because every fleet determinism
  // guarantee reduces to this rule.
  ServingConfig cfg = base_config();
  cfg.keep_request_records = true;
  cfg.traffic.explicit_arrivals = {
      {0, workload::make_scenario(8, 8)},
      {0, workload::make_scenario(8, 8)},
  };
  for (const BalancerPolicy policy :
       {BalancerPolicy::kJoinShortestQueue, BalancerPolicy::kKvAware}) {
    const FleetResult r =
        FleetSim(FleetConfig::homogeneous(cfg, 2, policy)).run();
    ASSERT_EQ(r.fleet.requests.size(), 2u) << balancer_policy_name(policy);
    EXPECT_EQ(r.fleet.requests[0].replica, 0u);
    EXPECT_EQ(r.fleet.requests[1].replica, 1u);
    EXPECT_EQ(r.routed, (std::vector<std::uint64_t>{1, 1}));
  }
}

TEST(FleetSimTest, JsqShardsACycleZeroBurstOfFour) {
  // Four simultaneous arrivals on two idle replicas behind JSQ: request 0
  // takes the lowest-index tie, and the outstanding counts then keep the
  // burst split two and two, every request completing.
  ServingConfig cfg = base_config();
  cfg.keep_request_records = true;
  cfg.traffic.explicit_arrivals.assign(4, {0, workload::make_scenario(4, 4)});
  const FleetResult r = FleetSim(FleetConfig::homogeneous(
                                     cfg, 2, BalancerPolicy::kJoinShortestQueue))
                            .run();
  ASSERT_EQ(r.fleet.requests.size(), 4u);
  EXPECT_EQ(r.fleet.requests[0].replica, 0u);
  EXPECT_EQ(r.routed, (std::vector<std::uint64_t>{2, 2}));
  EXPECT_EQ(r.fleet.completed, 4u);
}

TEST(FleetSimTest, KvAwareRoutesTowardTheBiggerPool) {
  // Heterogeneous fleet: replica 1 has 4x the KV budget. The KV-aware
  // balancer must send it the bulk of the traffic; blind round-robin
  // splits 50/50 and pays queueing on the starved replica.
  ServingConfig small = base_config();
  KvBlockManager probe(small.arch, small.model, 1);
  small.kv_budget_bytes_per_node = 64 * probe.bytes_per_token_per_node();
  ServingConfig big = small;
  big.kv_budget_bytes_per_node = 256 * probe.bytes_per_token_per_node();

  FleetConfig cfg;
  cfg.replicas = {small, big};
  cfg.traffic = small.traffic;
  cfg.balancer = BalancerPolicy::kKvAware;
  const FleetResult r = FleetSim(cfg).run();
  EXPECT_EQ(r.fleet.completed, cfg.traffic.num_requests);
  EXPECT_GT(r.routed[1], r.routed[0]);
}

/// A shape script sets the request budget: the fleet replays all of it
/// whatever `num_requests` says, and its schedulers drain every turn.
TEST(FleetSimTest, ScriptSetsTheRequestBudget) {
  ServingConfig cfg = base_config();
  ChatTrafficConfig chat;
  chat.conversations = 8;
  chat.turns = 4;
  chat.system_prompt_tokens = 8;
  chat.user_turn_tokens = 4;
  chat.reply_tokens = 4;
  cfg.traffic.scripted_shapes = chat_turn_shapes(chat);
  cfg.traffic.num_requests = 5;  // stale: the script is 32 turns long
  cfg.traffic.arrival_rate_per_s = 0.5;
  const FleetResult r = FleetSim(FleetConfig::homogeneous(cfg, 2)).run();
  EXPECT_EQ(r.fleet.offered, 32u);
  EXPECT_EQ(r.fleet.completed, 32u);
}

// ------------------------------------------------- The acceptance pin

/// The PR's acceptance criterion: on a skewed scenario mix at a fixed
/// seed, join-shortest-queue routing strictly beats round-robin on p99
/// TTFT at no worse total goodput. Round-robin's failure mode is exactly
/// the whale pile-up: consecutive heavy requests land on the same replica
/// by arrival parity while other replicas idle.
TEST(FleetSimTest, JsqBeatsRoundRobinOnSkewedMix) {
  const ServingConfig cfg = skewed_config();
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);
  const FleetResult rr =
      FleetSim(FleetConfig::homogeneous(cfg, 3, BalancerPolicy::kRoundRobin),
               costs)
          .run();
  const FleetResult jsq =
      FleetSim(FleetConfig::homogeneous(cfg, 3,
                                        BalancerPolicy::kJoinShortestQueue),
               costs)
          .run();
  ASSERT_EQ(rr.fleet.completed, cfg.traffic.num_requests);
  ASSERT_EQ(jsq.fleet.completed, cfg.traffic.num_requests);
  EXPECT_LT(jsq.fleet.ttft_ms.p99, rr.fleet.ttft_ms.p99);
  EXPECT_GE(jsq.fleet.goodput_req_s, rr.fleet.goodput_req_s);
  // The mechanism, not just the outcome: round-robin split the stream
  // blind (within one request of exactly even), while JSQ actually
  // steered — its routing departs from the parity split.
  std::uint64_t rr_max = 0, rr_min = cfg.traffic.num_requests;
  for (const std::uint64_t n : rr.routed) {
    rr_max = std::max(rr_max, n);
    rr_min = std::min(rr_min, n);
  }
  EXPECT_LE(rr_max - rr_min, 1u);
  EXPECT_NE(jsq.routed, rr.routed);
}

// ------------------------------------------------------------- Validation

TEST(FleetSimTest, RejectsEmptyAndInconsistentFleets) {
  EXPECT_THROW(FleetConfig{}.validate(), std::invalid_argument);

  ServingConfig a = base_config();
  ServingConfig b = base_config();
  b.arch.frequency_hz = 300e6;  // second clock domain: unsupported
  FleetConfig two;
  two.replicas = {a, b};
  two.traffic = a.traffic;
  EXPECT_THROW(two.validate(), std::invalid_argument);

  ServingConfig bad = base_config();
  bad.kv_block_tokens = 0;
  EXPECT_THROW(FleetConfig::homogeneous(bad, 2).validate(),
               std::invalid_argument);
  // FleetSim's constructor runs the same check.
  EXPECT_THROW(FleetSim{FleetConfig{}}, std::invalid_argument);
}

/// Traffic is checked when the fleet is built, not when it first runs.
/// NaN passes a `x <= 0` bound unnoticed, so NaN and infinite rates and
/// burst parameters each get a case.
TEST(FleetSimTest, RejectsBadTrafficAtConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double rate : {0.0, nan, inf, -inf}) {
    ServingConfig cfg = base_config();
    cfg.traffic.arrival_rate_per_s = rate;
    EXPECT_THROW(FleetSim{FleetConfig::homogeneous(cfg, 2)},
                 std::invalid_argument)
        << rate;
  }
  for (double TrafficConfig::*field :
       {&TrafficConfig::burst_factor, &TrafficConfig::burst_fraction,
        &TrafficConfig::burst_period_s}) {
    for (const double bad : {nan, inf}) {
      ServingConfig cfg = base_config();
      cfg.traffic.process = ArrivalProcess::kBursty;
      cfg.traffic.*field = bad;
      EXPECT_THROW(FleetSim{FleetConfig::homogeneous(cfg, 2)},
                   std::invalid_argument)
          << bad;
    }
  }
  // A zero request budget leaves nothing to serve or compare.
  ServingConfig empty = base_config();
  empty.traffic.num_requests = 0;
  EXPECT_THROW(FleetSim{FleetConfig::homogeneous(empty, 2)},
               std::invalid_argument);
  // An explicit schedule or a shape script sets the budget instead.
  empty.traffic.scripted_shapes = {workload::make_scenario(8, 8)};
  EXPECT_NO_THROW(FleetSim{FleetConfig::homogeneous(empty, 2)});
}

/// A finite rate so low that the first arrival lands past the 64-bit cycle
/// clock is a config error at run time, not an undefined cast.
TEST(FleetSimTest, RejectsArrivalsPastTheCycleClock) {
  ServingConfig cfg = base_config();
  cfg.traffic.arrival_rate_per_s = 1e-300;
  const FleetSim sim(FleetConfig::homogeneous(cfg, 1));
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(FleetSimTest, RejectsUnsortedExplicitArrivalsAtConstruction) {
  ServingConfig cfg = base_config();
  cfg.traffic.explicit_arrivals = {{1000, workload::make_scenario(8, 8)},
                                   {0, workload::make_scenario(8, 8)}};
  EXPECT_THROW(FleetSim{FleetConfig::homogeneous(cfg, 2)},
               std::invalid_argument);
}

TEST(FleetSimTest, SharedCostModelMustPriceEveryReplica) {
  const ServingConfig cfg = base_config();
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);
  ServingConfig two_node = cfg;
  two_node.arch = core::ArchConfig::two_node();
  ServingConfig wide = cfg;
  wide.model = fleet_model();

  // The second replica differs in arch, then in model: the error names it.
  for (const ServingConfig& odd : {two_node, wide}) {
    FleetConfig fleet = FleetConfig::homogeneous(cfg, 2);
    fleet.replicas[1] = odd;
    try {
      FleetSim sim(fleet, costs);
      ADD_FAILURE() << "mismatched cost model accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("replica 1"), std::string::npos)
          << e.what();
    }
  }
  // A width-1 fleet takes the same check.
  EXPECT_THROW(FleetSim(FleetConfig::homogeneous(two_node, 1), costs),
               std::invalid_argument);
  EXPECT_THROW(FleetSim(FleetConfig::homogeneous(wide, 1), costs),
               std::invalid_argument);
  EXPECT_NO_THROW(FleetSim(FleetConfig::homogeneous(cfg, 1), costs));
}

TEST(FleetSimTest, RejectsZeroCostProbeStride) {
  ServingConfig cfg = base_config();
  cfg.cost_probe_stride = 0;
  EXPECT_THROW(FleetConfig::homogeneous(cfg, 2).validate(),
               std::invalid_argument);
}

/// A token budget only means something to the chunked policy; the
/// whole-prompt policies never split a prompt, so on them a budget could
/// only cap batch members. The rule names the replica it fails on.
TEST(FleetSimTest, RejectsTokenBudgetOnWholePromptPolicies) {
  for (const BatchPolicy policy :
       {BatchPolicy::kPrefillPriority, BatchPolicy::kDecodePriority}) {
    ServingConfig cfg = base_config();
    cfg.scheduler.policy = policy;
    EXPECT_NO_THROW(FleetConfig::homogeneous(cfg, 2).validate());
    FleetConfig fleet = FleetConfig::homogeneous(cfg, 2);
    fleet.replicas[1].scheduler.max_tokens_per_iter = 16;
    try {
      fleet.validate();
      ADD_FAILURE() << "budget accepted under " << batch_policy_name(policy);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("replica 1"), std::string::npos)
          << e.what();
    }
  }
  ServingConfig chunked = base_config();
  chunked.scheduler.policy = BatchPolicy::kChunkedMixed;
  chunked.scheduler.max_tokens_per_iter = 16;
  EXPECT_NO_THROW(FleetConfig::homogeneous(chunked, 2).validate());
}

// --------------------------------------------------------- CLI validation

util::Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return util::Cli(static_cast<int>(args.size()), args.data());
}

TEST(FleetCliTest, ParsesReplicasAndBalancer) {
  const SchedulerCliOptions defaults = parse_scheduler_cli(make_cli({}));
  EXPECT_EQ(defaults.replicas, 1u);
  EXPECT_EQ(defaults.balancer, BalancerPolicy::kRoundRobin);
  EXPECT_FALSE(defaults.fleet());

  const SchedulerCliOptions fleet = parse_scheduler_cli(
      make_cli({"--replicas=4", "--balancer=jsq"}));
  EXPECT_EQ(fleet.replicas, 4u);
  EXPECT_EQ(fleet.balancer, BalancerPolicy::kJoinShortestQueue);
  EXPECT_TRUE(fleet.fleet());

  // The space-separated form the fleet quickstart uses.
  const SchedulerCliOptions spaced = parse_scheduler_cli(
      make_cli({"--replicas", "4", "--balancer", "kv"}));
  EXPECT_EQ(spaced.replicas, 4u);
  EXPECT_EQ(spaced.balancer, BalancerPolicy::kKvAware);

  // --replicas without --balancer defaults to round-robin.
  EXPECT_EQ(parse_scheduler_cli(make_cli({"--replicas=2"})).balancer,
            BalancerPolicy::kRoundRobin);
}

TEST(FleetCliTest, RejectsInvalidReplicaCounts) {
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--replicas=0"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--replicas=-3"})),
               std::invalid_argument);
}

TEST(FleetCliTest, RejectsUnknownBalancer) {
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--balancer=random"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--replicas=2", "--balancer="})),
               std::invalid_argument);
  EXPECT_THROW(parse_balancer_policy("least-loaded"), std::invalid_argument);
}

TEST(FleetCliTest, RejectsBalancerWithoutFleet) {
  // Routing over one replica is a no-op; the flag must not silently do
  // nothing.
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--balancer=jsq"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=1", "--balancer=jsq"})),
               std::invalid_argument);
}

TEST(FleetCliTest, ParsesRolesAndKvLink) {
  const SchedulerCliOptions disagg = parse_scheduler_cli(
      make_cli({"--replicas=3", "--roles=prefill,general,decode"}));
  ASSERT_EQ(disagg.roles.size(), 3u);
  EXPECT_EQ(disagg.roles[0], ReplicaRole::kPrefill);
  EXPECT_EQ(disagg.roles[1], ReplicaRole::kGeneral);
  EXPECT_EQ(disagg.roles[2], ReplicaRole::kDecode);
  EXPECT_TRUE(disagg.disaggregated());
  // --kv-link-gbps defaults to 100 GB/s whenever roles are set.
  EXPECT_EQ(disagg.kv_link_gbps, 100.0);

  const SchedulerCliOptions tuned = parse_scheduler_cli(
      make_cli({"--replicas=2", "--roles=prefill,decode",
                "--kv-link-gbps=8.5"}));
  EXPECT_EQ(tuned.kv_link_gbps, 8.5);

  // No roles => symmetric fleet; the disagg surface stays absent.
  const SchedulerCliOptions plain =
      parse_scheduler_cli(make_cli({"--replicas=2"}));
  EXPECT_TRUE(plain.roles.empty());
  EXPECT_FALSE(plain.disaggregated());
}

TEST(FleetCliTest, RejectsRolesWithoutFleet) {
  // One replica cannot disaggregate: migration needs a distinct target.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--roles=prefill,decode"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=1", "--roles=decode"})),
               std::invalid_argument);
}

TEST(FleetCliTest, RejectsRoleCountMismatch) {
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=3", "--roles=prefill,decode"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2",
                             "--roles=prefill,prefill,decode"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--replicas=2", "--roles="})),
               std::invalid_argument);
}

TEST(FleetCliTest, RejectsRoleShapesAtParseTime) {
  // Role lists with no decode replica, or only general ones, parse as
  // names but mean nothing: FleetConfig::validate rejects them before
  // parse_scheduler_cli returns, not later inside FleetSim.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--roles=prefill,prefill"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--roles=general,general"})),
               std::invalid_argument);
}

TEST(FleetCliTest, RejectsBadRoleNamesAndLinkRates) {
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--roles=prefill,gpu"})),
               std::invalid_argument);
  EXPECT_THROW(parse_replica_role("encode"), std::invalid_argument);
  // A zero- or negative-rate link never delivers a block.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--roles=prefill,decode",
                             "--kv-link-gbps=0"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--roles=prefill,decode",
                             "--kv-link-gbps=-4"})),
               std::invalid_argument);
  // --kv-link-gbps without --roles must not silently do nothing.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--replicas=2", "--kv-link-gbps=50"})),
               std::invalid_argument);
}

TEST(FleetCliTest, ParsesRolesWithAutoscale) {
  // --roles + --autoscale is legal: the role list sizes the pool (no
  // --replicas needed) and a --min-replicas comma list becomes per-tier
  // floors in role-first-appearance order.
  const SchedulerCliOptions tiered = parse_scheduler_cli(
      make_cli({"--autoscale=hybrid", "--roles=prefill,prefill,decode",
                "--min-replicas=2,1"}));
  EXPECT_TRUE(tiered.autoscale.enabled);
  EXPECT_TRUE(tiered.disaggregated());
  EXPECT_EQ(tiered.fleet_width(), 3u);
  EXPECT_EQ(tiered.autoscale.max_replicas, 3u);
  EXPECT_EQ(tiered.autoscale.tier_min, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(tiered.bounds_label(), "per-tier 2,1..pool");

  // A single count floors every tier; unset, every tier floors at 1.
  const SchedulerCliOptions floored = parse_scheduler_cli(make_cli(
      {"--autoscale=queue", "--roles=prefill,prefill,decode,decode",
       "--min-replicas=2"}));
  EXPECT_EQ(floored.autoscale.min_replicas, 2u);
  EXPECT_TRUE(floored.autoscale.tier_min.empty());
  EXPECT_EQ(floored.bounds_label(), "per-tier 2..pool");
  const SchedulerCliOptions defaulted = parse_scheduler_cli(
      make_cli({"--autoscale=queue", "--roles=prefill,decode"}));
  EXPECT_EQ(defaulted.autoscale.min_replicas, 1u);
  EXPECT_TRUE(defaulted.autoscale.tier_min.empty());
  EXPECT_EQ(defaulted.fleet_width(), 2u);

  // A symmetric fleet is bounded by one floor and its pool width.
  const SchedulerCliOptions scalar = parse_scheduler_cli(
      make_cli({"--autoscale=queue", "--min-replicas=2",
                "--max-replicas=6"}));
  EXPECT_EQ(scalar.autoscale.min_replicas, 2u);
  EXPECT_EQ(scalar.autoscale.max_replicas, 6u);
  EXPECT_TRUE(scalar.autoscale.tier_min.empty());
  EXPECT_EQ(scalar.bounds_label(), "2..6");
}

TEST(FleetCliTest, RejectsBadPerTierBoundSpecs) {
  // Floor lists are per-tier: meaningless without --roles.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue", "--min-replicas=1,1"})),
               std::invalid_argument);
  // --max-replicas is one count: the symmetric pool width.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale=queue", "--max-replicas=2,2"})),
               std::invalid_argument);
  // With --roles the role list is the pool: a width flag would be a
  // second, possibly contradicting, way to size it.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale", "--roles=prefill,decode",
                             "--max-replicas=2"})),
               std::invalid_argument);
  // Zero, junk, and empty entries are rejected at parse time.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale", "--roles=prefill,decode",
                             "--min-replicas=0,1"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale", "--roles=prefill,decode",
                             "--min-replicas=two,1"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--autoscale", "--roles=prefill,decode",
                             "--min-replicas=1,,1"})),
               std::invalid_argument);
}

TEST(FleetSimTest, ValidatesPerTierBounds) {
  ServingConfig base = base_config();
  const auto with = [&](auto mutate) {
    FleetConfig cfg = FleetConfig::homogeneous(base, 3);
    cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                 ReplicaRole::kDecode};
    cfg.kv_link.bytes_per_cycle = 32.0;
    cfg.autoscale.enabled = true;
    cfg.autoscale.max_replicas = 3;
    cfg.autoscale.tier_min = {1, 1};
    mutate(cfg.autoscale);
    return cfg;
  };
  EXPECT_NO_THROW(with([](AutoscalerConfig&) {}).validate());
  // An unset list is valid (every tier floors at min_replicas), and
  // validation leaves it unset.
  const FleetConfig unset =
      with([](AutoscalerConfig& a) { a.tier_min.clear(); });
  EXPECT_NO_THROW(unset.validate());
  EXPECT_TRUE(unset.autoscale.tier_min.empty());
  // A list must name every tier (two tiers here: prefill, decode).
  EXPECT_THROW(with([](AutoscalerConfig& a) { a.tier_min = {1}; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      with([](AutoscalerConfig& a) { a.tier_min = {1, 1, 1}; }).validate(),
      std::invalid_argument);
  // Floors: >= 1, <= the tier's pool — from the list or from min_replicas.
  EXPECT_THROW(
      with([](AutoscalerConfig& a) { a.tier_min = {0, 1}; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      with([](AutoscalerConfig& a) { a.tier_min = {1, 2}; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(with([](AutoscalerConfig& a) {
                 a.tier_min.clear();
                 a.min_replicas = 2;  // the decode tier holds one replica
               }).validate(),
               std::invalid_argument);
  // max_replicas is the pool width on every fleet, never ignored.
  EXPECT_THROW(
      with([](AutoscalerConfig& a) { a.max_replicas = 99; }).validate(),
      std::invalid_argument);
}

/// Regression: min_replicas floors every tier of a disaggregated fleet.
/// It used to be ignored there, so a 2p+2d fleet asked for floors of 2
/// ran with tier floors of 1.
TEST(FleetSimTest, MinReplicasFloorsEveryDisaggregatedTier) {
  FleetConfig cfg = FleetConfig::homogeneous(base_config(), 4);
  cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
               ReplicaRole::kDecode, ReplicaRole::kDecode};
  cfg.kv_link.bytes_per_cycle = 32.0;
  cfg.autoscale.enabled = true;
  cfg.autoscale.min_replicas = 2;
  cfg.autoscale.max_replicas = 4;
  cfg.autoscale.eval_interval_ms = 2.0;
  const FleetResult r = FleetSim(cfg).run();
  ASSERT_EQ(r.tiers.size(), 2u);
  for (const FleetResult::TierStats& tier : r.tiers) {
    EXPECT_EQ(tier.min_live, 2u);
    EXPECT_EQ(tier.peak_live, 2u);
  }
  EXPECT_TRUE(r.scale_events.empty());
}

/// Satellite regression: load_imbalance averages over routing-eligible
/// replicas only. On a 1-prefill + 1-decode fleet every request routes to
/// the single prefill replica, so its share of the *eligible* mean is
/// exactly 1.0 — the old fleet-wide mean divided by 2 and reported 2.0.
TEST(FleetSimTest, LoadImbalanceCountsRoutingEligibleOnly) {
  ServingConfig base = base_config();
  FleetConfig cfg = FleetConfig::homogeneous(base, 2);
  cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  cfg.kv_link.bytes_per_cycle = 32.0;
  const FleetResult r = FleetSim(cfg).run();
  ASSERT_EQ(r.routed.size(), 2u);
  EXPECT_GT(r.routed[0], 0u);   // every request routes to the prefill
  EXPECT_EQ(r.routed[1], 0u);   // the decode replica takes handoffs only
  EXPECT_DOUBLE_EQ(r.load_imbalance, 1.0);
  // The per-tier stats partition the pool one role class apiece.
  ASSERT_EQ(r.tiers.size(), 2u);
  EXPECT_EQ(r.tiers[0].role, ReplicaRole::kPrefill);
  EXPECT_EQ(r.tiers[1].role, ReplicaRole::kDecode);
  ASSERT_EQ(r.tiers[0].members.size(), 1u);
  EXPECT_EQ(r.tiers[0].members[0], 0u);
  ASSERT_EQ(r.tiers[1].members.size(), 1u);
  EXPECT_EQ(r.tiers[1].members[0], 1u);
  // A static fleet's tiers never flex, and one replica has no spread.
  EXPECT_EQ(r.tiers[0].min_live, 1u);
  EXPECT_EQ(r.tiers[0].peak_live, 1u);
  EXPECT_DOUBLE_EQ(r.tiers[1].mean_live, 1.0);
  EXPECT_DOUBLE_EQ(r.tiers[0].ttft_p99_spread_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.tiers[1].ttft_p99_spread_ms, 0.0);
}

TEST(FleetCliTest, RoleNamesRoundTrip) {
  EXPECT_EQ(parse_replica_role("general"), ReplicaRole::kGeneral);
  EXPECT_EQ(parse_replica_role("prefill"), ReplicaRole::kPrefill);
  EXPECT_EQ(parse_replica_role("decode"), ReplicaRole::kDecode);
  EXPECT_STREQ(replica_role_name(ReplicaRole::kGeneral), "general");
  EXPECT_STREQ(replica_role_name(ReplicaRole::kPrefill), "prefill");
  EXPECT_STREQ(replica_role_name(ReplicaRole::kDecode), "decode");
}

TEST(FleetSimTest, ValidatesDisaggRoleShape) {
  ServingConfig base = base_config();
  // Role list must cover the pool exactly.
  FleetConfig mismatched = FleetConfig::homogeneous(base, 3);
  mismatched.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  EXPECT_THROW(mismatched.validate(), std::invalid_argument);

  // At least one decode replica, at least one non-decode replica.
  FleetConfig no_decode = FleetConfig::homogeneous(base, 2);
  no_decode.roles = {ReplicaRole::kPrefill, ReplicaRole::kGeneral};
  EXPECT_THROW(no_decode.validate(), std::invalid_argument);
  FleetConfig all_decode = FleetConfig::homogeneous(base, 2);
  all_decode.roles = {ReplicaRole::kDecode, ReplicaRole::kDecode};
  EXPECT_THROW(all_decode.validate(), std::invalid_argument);

  // A dead KV link can never migrate a block.
  FleetConfig dead_link = FleetConfig::homogeneous(base, 2);
  dead_link.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  dead_link.kv_link.bytes_per_cycle = 0;
  EXPECT_THROW(dead_link.validate(), std::invalid_argument);

  // The same shape with a live link is valid.
  FleetConfig ok = FleetConfig::homogeneous(base, 2);
  ok.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  ok.kv_link.bytes_per_cycle = 32.0;
  EXPECT_NO_THROW(ok.validate());
}

TEST(FleetCliTest, BalancerNamesRoundTrip) {
  EXPECT_EQ(parse_balancer_policy("rr"), BalancerPolicy::kRoundRobin);
  EXPECT_EQ(parse_balancer_policy("jsq"), BalancerPolicy::kJoinShortestQueue);
  EXPECT_EQ(parse_balancer_policy("kv"), BalancerPolicy::kKvAware);
  EXPECT_STREQ(balancer_policy_name(BalancerPolicy::kRoundRobin),
               "round-robin");
  EXPECT_STREQ(balancer_policy_name(BalancerPolicy::kJoinShortestQueue),
               "join-shortest-queue");
  EXPECT_STREQ(balancer_policy_name(BalancerPolicy::kKvAware), "kv-aware");
}

}  // namespace
}  // namespace looplynx::serve
