// Seed-sweep property harness for the serve layer: runs the
// {batch policy x preempt policy x balancer x autoscale} matrix over a
// spread of traffic seeds and asserts *structural* invariants after every
// run — properties that must hold for any config, not pinned outcomes.
//
// The invariants:
//  - Request conservation: every injected request is accounted for at the
//    horizon (completed + rejected == offered, fleet-wide and per
//    replica; nothing is still queued or running once the engine drains).
//  - KV block accounting: occupancy never exceeds capacity, no
//    over-release was ever clamped, and every block is back in the pool
//    at the end (frees match allocs).
//  - Per-record sanity: records are id-sorted and complete, queue wait
//    <= TTFT <= end-to-end latency, and the serving replica's index is
//    always below the live replica count at routing time (the live set
//    is the index prefix).
//  - Rollup vs records: the decode-token and prefill-chunk counters sum
//    the completed records, every per-request latency summary counts
//    each completion once, and the TTFT p50/p99 equal util::percentile
//    over the records' TTFTs.
//  - Scale-event log: monotone fleet clock, single-step transitions
//    chained from min_replicas, never outside [min, max], and the
//    time-weighted live stats / replica-cycle cost are consistent with
//    the log.
//  - KV-transfer conservation (disaggregated fleets): every byte on the
//    ring fabric is a migration or steal byte (x hops), two-replica
//    topologies move exactly migrated-blocks x block-bytes over the wire,
//    every migrated request finishes on a decode-role replica, and the
//    per-replica cycle tiling (now including kv-migrate) still equals the
//    makespan under observation.
//  - Inter-token gaps: the fleet's gap summary equals the one rebuilt from
//    the observer's token-emission stamps, and every record's worst gap is
//    its largest rebuilt gap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/autoscaler.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "serve/traffic.hpp"
#include "util/stats.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

/// Cosim dimensions with a context window wide enough for the whale
/// scenarios the skewed mixes use.
model::ModelConfig harness_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

struct MatrixPoint {
  std::string name;
  BatchPolicy policy = BatchPolicy::kPrefillPriority;
  std::uint32_t chunk_tokens = 0;
  PreemptPolicy preempt = PreemptPolicy::kNone;
  std::uint32_t kv_block_tokens = 1;
  /// 0 = default architecture budget; otherwise tokens-per-node budget.
  std::uint32_t kv_budget_tokens = 0;
  BalancerPolicy balancer = BalancerPolicy::kRoundRobin;
  std::uint32_t replicas = 2;  // pool size (== max_replicas if autoscaled)
  bool bursty = false;
  double rate = 300.0;
  bool autoscale = false;
  ScalePolicy scale_policy = ScalePolicy::kHybrid;
  std::uint32_t min_replicas = 1;
  /// Content-addressed prefix cache / swap tier (ServingConfig flags).
  bool prefix_cache = false;
  bool kv_swap = false;
  /// Replace the skewed mix with multi-turn chat traffic (scripted
  /// shapes whose replayed histories actually share content — the only
  /// traffic where cache invariants are non-vacuous across requests).
  bool chat = false;
  /// Disaggregated prefill/decode roles (empty = symmetric fleet, no
  /// fabric). Size must equal `replicas`.
  std::vector<ReplicaRole> roles = {};
  /// Per-tier autoscale floors (disaggregated + autoscale points only;
  /// empty = every tier floors at min_replicas).
  std::vector<std::uint32_t> tier_min = {};
};

/// The matrix: every batch policy, both preempt policies, every balancer,
/// autoscaling off and on (all three scale policies) — 9 points x 5 seeds
/// = 45 runs, comfortably past the 24-combination floor.
std::vector<MatrixPoint> matrix() {
  std::vector<MatrixPoint> points;
  points.push_back({.name = "prefill-static-jsq",
                    .policy = BatchPolicy::kPrefillPriority,
                    .balancer = BalancerPolicy::kJoinShortestQueue});
  points.push_back({.name = "decode-static-rr",
                    .policy = BatchPolicy::kDecodePriority,
                    .replicas = 3});
  points.push_back({.name = "chunked-static-kv-bursty",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .balancer = BalancerPolicy::kKvAware,
                    .bursty = true});
  points.push_back({.name = "single-replica-identity",
                    .policy = BatchPolicy::kPrefillPriority,
                    .replicas = 1});
  points.push_back({.name = "paged-preempt-static-rr",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .preempt = PreemptPolicy::kRecomputeYoungest,
                    .kv_block_tokens = 4,
                    .kv_budget_tokens = 56,
                    .rate = 1200.0});
  points.push_back({.name = "autoscale-queue-prefill",
                    .policy = BatchPolicy::kPrefillPriority,
                    .replicas = 3,
                    .bursty = true,
                    .autoscale = true,
                    .scale_policy = ScalePolicy::kQueueDepth});
  points.push_back({.name = "autoscale-slo-decode-kv",
                    .policy = BatchPolicy::kDecodePriority,
                    .balancer = BalancerPolicy::kKvAware,
                    .replicas = 2,
                    .autoscale = true,
                    .scale_policy = ScalePolicy::kSloTtft});
  points.push_back({.name = "autoscale-hybrid-paged-jsq",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .preempt = PreemptPolicy::kRecomputeYoungest,
                    .kv_block_tokens = 4,
                    .kv_budget_tokens = 128,
                    .balancer = BalancerPolicy::kJoinShortestQueue,
                    .replicas = 3,
                    .bursty = true,
                    .rate = 900.0,
                    .autoscale = true,
                    .scale_policy = ScalePolicy::kHybrid});
  points.push_back({.name = "cache-chat-paged-preempt",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .preempt = PreemptPolicy::kRecomputeYoungest,
                    .kv_block_tokens = 4,
                    .kv_budget_tokens = 96,
                    .rate = 1200.0,
                    .prefix_cache = true,
                    .chat = true});
  points.push_back({.name = "cache-swap-cost-aware",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .preempt = PreemptPolicy::kRecomputeCostAware,
                    .kv_block_tokens = 4,
                    .kv_budget_tokens = 96,
                    .replicas = 1,
                    .rate = 1200.0,
                    .prefix_cache = true,
                    .kv_swap = true,
                    .chat = true});
  points.push_back({.name = "cache-unpaged-whole-footprint",
                    .policy = BatchPolicy::kDecodePriority,
                    .kv_block_tokens = 4,
                    .kv_budget_tokens = 128,
                    .prefix_cache = true,
                    .chat = true});
  points.push_back({.name = "disagg-1p1d-jsq",
                    .policy = BatchPolicy::kPrefillPriority,
                    .balancer = BalancerPolicy::kJoinShortestQueue,
                    .replicas = 2,
                    .roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode}});
  points.push_back({.name = "disagg-2p1d-rr-bursty",
                    .policy = BatchPolicy::kPrefillPriority,
                    .replicas = 3,
                    .bursty = true,
                    .rate = 600.0,
                    .roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                              ReplicaRole::kDecode}});
  points.push_back({.name = "disagg-paged-chunked-pgd",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .kv_block_tokens = 4,
                    .balancer = BalancerPolicy::kJoinShortestQueue,
                    .replicas = 3,
                    .rate = 1200.0,
                    .roles = {ReplicaRole::kPrefill, ReplicaRole::kGeneral,
                              ReplicaRole::kDecode}});
  points.push_back({.name = "disagg-cache-chat-1p1d",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 16,
                    .kv_block_tokens = 4,
                    .replicas = 2,
                    .rate = 1200.0,
                    .prefix_cache = true,
                    .chat = true,
                    .roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode}});
  // Scales while migrating: per-tier autoscaling on a disaggregated
  // fleet, so scale-down drains overlap in-flight KV migrations and the
  // hand-off conservation terms must survive live-mask changes.
  points.push_back({.name = "disagg-autoscale-2p1d",
                    .policy = BatchPolicy::kPrefillPriority,
                    .balancer = BalancerPolicy::kJoinShortestQueue,
                    .replicas = 3,
                    .bursty = true,
                    .rate = 600.0,
                    .autoscale = true,
                    .scale_policy = ScalePolicy::kHybrid,
                    .roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                              ReplicaRole::kDecode},
                    .tier_min = {1, 1}});
  points.push_back({.name = "autoscale-hybrid-floor2",
                    .policy = BatchPolicy::kChunkedMixed,
                    .chunk_tokens = 24,
                    .balancer = BalancerPolicy::kJoinShortestQueue,
                    .replicas = 4,
                    .bursty = true,
                    .rate = 600.0,
                    .autoscale = true,
                    .min_replicas = 2});
  return points;
}

FleetConfig build_config(const MatrixPoint& p, std::uint64_t seed) {
  ServingConfig base;
  base.arch = core::ArchConfig::one_node();
  base.model = harness_model();
  base.cost_probe_stride = 16;
  base.traffic.mix = workload::Mix{"skewed",
                                   {{workload::make_scenario(8, 16), 0.7},
                                    {workload::make_scenario(192, 48), 0.2},
                                    {workload::make_scenario(4, 40), 0.1}}};
  base.traffic.num_requests = 32;
  base.traffic.arrival_rate_per_s = p.rate;
  base.traffic.seed = seed;
  if (p.chat) {
    // Small enough for the 256-token context window: longest prompt is
    // 24 + 2 x (8 + 8) + 8 = 64 tokens, +8 decode.
    ChatTrafficConfig chat;
    chat.conversations = 3;
    chat.turns = 3;
    chat.system_prompt_tokens = 24;
    chat.user_turn_tokens = 8;
    chat.reply_tokens = 8;
    base.traffic.scripted_shapes = chat_turn_shapes(chat);
    base.traffic.num_requests =
        static_cast<std::uint32_t>(base.traffic.scripted_shapes.size());
  }
  base.prefix_cache = p.prefix_cache;
  base.kv_swap = p.kv_swap;
  if (p.bursty) {
    base.traffic.process = ArrivalProcess::kBursty;
    base.traffic.burst_factor = 4.0;
    base.traffic.burst_fraction = 0.25;
    base.traffic.burst_period_s = 0.05;
  }
  base.scheduler.max_batch = 4;
  base.scheduler.max_in_flight = 6;
  base.scheduler.policy = p.policy;
  base.scheduler.max_tokens_per_iter = p.chunk_tokens;
  base.scheduler.preempt = p.preempt;
  base.kv_block_tokens = p.kv_block_tokens;
  if (p.kv_budget_tokens > 0) {
    KvBlockManager probe(base.arch, base.model, 1);
    base.kv_budget_bytes_per_node =
        p.kv_budget_tokens * probe.bytes_per_token_per_node();
  }
  base.slo.ttft_ms = 5.0;
  base.slo.token_ms = 2.0;
  base.keep_request_records = true;

  FleetConfig cfg = FleetConfig::homogeneous(base, p.replicas, p.balancer);
  if (!p.roles.empty()) {
    cfg.roles = p.roles;
    cfg.kv_link.bytes_per_cycle = 32.0;
  }
  if (p.autoscale) {
    cfg.autoscale.enabled = true;
    cfg.autoscale.policy = p.scale_policy;
    cfg.autoscale.min_replicas = p.min_replicas;
    cfg.autoscale.max_replicas = p.replicas;
    cfg.autoscale.tier_min = p.tier_min;
    cfg.autoscale.eval_interval_ms = 2.0;
    cfg.autoscale.ttft_window_ms = 10.0;
    cfg.autoscale.queue_high = 1.5;
    cfg.autoscale.queue_low = 0.25;
    cfg.autoscale.up_evals = 1;
    cfg.autoscale.down_evals = 2;
    cfg.autoscale.cooldown_evals = 1;
  }
  return cfg;
}

void check_invariants(const FleetConfig& cfg, const FleetResult& r,
                      const std::string& tag) {
  SCOPED_TRACE(tag);
  const FleetMetrics& fleet = r.fleet;
  const auto pool = static_cast<std::uint32_t>(cfg.replicas.size());

  // ---- Request conservation at the horizon ----
  EXPECT_EQ(fleet.offered, cfg.traffic.num_requests);
  EXPECT_EQ(fleet.completed + fleet.rejected, fleet.offered);
  ASSERT_EQ(r.replicas.size(), pool);
  ASSERT_EQ(r.routed.size(), pool);
  std::uint64_t routed_sum = 0, completed_sum = 0;
  for (std::uint32_t i = 0; i < pool; ++i) {
    const FleetMetrics& rm = r.replicas[i];
    EXPECT_EQ(rm.offered, r.routed[i]);
    // Hand-offs (KV migration / work stealing) move a routed request to a
    // peer, so per-replica conservation carries the transfer terms; on a
    // symmetric fleet both are 0 and this is the legacy identity.
    EXPECT_EQ(rm.completed + rm.rejected + rm.handoffs_out,
              rm.offered + rm.handoffs_in);
    routed_sum += r.routed[i];
    completed_sum += rm.completed;
  }
  EXPECT_EQ(routed_sum, fleet.offered);
  EXPECT_EQ(completed_sum, fleet.completed);
  // Nothing is lost on the wire: every hand-off shipped is delivered.
  EXPECT_EQ(fleet.handoffs_in, fleet.handoffs_out);
  EXPECT_EQ(fleet.handoffs_out, fleet.kv_migrations + fleet.work_steals);

  // ---- KV block accounting ----
  EXPECT_EQ(fleet.kv_over_release_events, 0u);
  EXPECT_EQ(fleet.kv_blocks_in_use_at_end, 0u);  // frees match allocs
  EXPECT_LE(fleet.kv_peak_occupancy, 1.0);
  for (const FleetMetrics& rm : r.replicas) {
    EXPECT_LE(rm.kv_peak_used_blocks, rm.kv_capacity_blocks);
    EXPECT_LE(rm.kv_peak_occupancy, 1.0);
    EXPECT_EQ(rm.kv_over_release_events, 0u);
    EXPECT_EQ(rm.kv_blocks_in_use_at_end, 0u);
  }

  // ---- Per-record sanity ----
  ASSERT_EQ(fleet.requests.size(), fleet.offered);
  // Tier bookkeeping (distinct roles in first-appearance order; a
  // symmetric fleet is a single tier holding the whole pool).
  std::vector<ReplicaRole> tier_roles;
  std::vector<std::uint32_t> tier_pool;
  for (const ReplicaRole role : cfg.roles) {
    std::size_t t = 0;
    while (t < tier_roles.size() && tier_roles[t] != role) ++t;
    if (t == tier_roles.size()) {
      tier_roles.push_back(role);
      tier_pool.push_back(0);
    }
    ++tier_pool[t];
  }
  const auto ntiers = tier_roles.size();
  // Under per-tier autoscaling `live_replicas` sums every tier's live
  // prefix: the floor sums the tier floors, the ceiling is the pool.
  std::uint32_t live_floor = pool, live_ceiling = pool;
  if (cfg.autoscale.enabled) {
    if (!cfg.disaggregated()) {
      live_floor = cfg.autoscale.min_replicas;
      live_ceiling = cfg.autoscale.max_replicas;
    } else if (cfg.autoscale.tier_min.empty()) {
      live_floor = static_cast<std::uint32_t>(ntiers) *
                   cfg.autoscale.min_replicas;
    } else {
      live_floor = 0;
      for (const std::uint32_t m : cfg.autoscale.tier_min) live_floor += m;
    }
  }
  for (std::size_t i = 0; i < fleet.requests.size(); ++i) {
    const RequestRecord& rec = fleet.requests[i];
    EXPECT_EQ(rec.id, i);  // id-sorted, gap-free == injection order
    EXPECT_LT(rec.replica, pool);
    EXPECT_GE(rec.live_replicas, live_floor);
    EXPECT_LE(rec.live_replicas, live_ceiling);
    // On a symmetric fleet the live set is the index prefix, so the
    // serving replica was live when this request was routed. A
    // disaggregated fleet's live set is a prefix per tier, not a fleet
    // index prefix — a request can finish on a high-index decode replica
    // while low-index prefill slots are dark — so the inequality only
    // binds without roles.
    if (!cfg.disaggregated()) {
      EXPECT_LT(rec.replica, rec.live_replicas);
    }
    if (rec.rejected) continue;
    EXPECT_GE(rec.queue_wait_ms, 0.0);
    EXPECT_LE(rec.queue_wait_ms, rec.ttft_ms);
    EXPECT_LE(rec.ttft_ms, rec.e2e_ms);
  }

  // ---- Rollup == the records of completed requests ----
  // Both are read off the same retirement logs, so the counters match
  // exactly and the TTFT percentiles match bit for bit (same doubles, same
  // interpolation).
  std::uint64_t decode_tokens = 0, chunk_steps = 0, chunked = 0;
  std::vector<double> ttft;
  for (const RequestRecord& rec : fleet.requests) {
    if (rec.rejected) continue;
    decode_tokens += rec.decode_tokens;
    chunk_steps += rec.prefill_chunks;
    chunked += rec.prefill_chunks > 1 ? 1 : 0;
    ttft.push_back(rec.ttft_ms);
  }
  EXPECT_EQ(fleet.decode_tokens, decode_tokens);
  EXPECT_EQ(fleet.prefill_chunk_steps, chunk_steps);
  EXPECT_EQ(fleet.chunked_prompts, chunked);
  for (const util::PercentileSummary* s :
       {&fleet.ttft_ms, &fleet.token_ms, &fleet.e2e_ms,
        &fleet.queue_wait_ms}) {
    EXPECT_EQ(s->count, fleet.completed);
  }
  EXPECT_EQ(fleet.ttft_ms.p50, util::percentile(ttft, 50.0));
  EXPECT_EQ(fleet.ttft_ms.p99, util::percentile(std::move(ttft), 99.0));

  // ---- KV-transfer conservation (disaggregated fleets) ----
  EXPECT_EQ(r.disaggregated, cfg.disaggregated());
  if (cfg.disaggregated()) {
    ASSERT_EQ(r.roles.size(), pool);
    std::uint64_t migrated_records = 0, stolen_records = 0;
    for (const RequestRecord& rec : fleet.requests) {
      if (rec.migrated) {
        ++migrated_records;
        EXPECT_FALSE(rec.rejected);  // migration happens after admission
        // Migration ships a finished prompt's KV to a decode replica, so
        // every migrated request must have *finished* on one.
        EXPECT_EQ(r.roles[rec.replica], ReplicaRole::kDecode)
            << "migrated request " << rec.id
            << " finished on non-decode replica " << rec.replica;
      }
      if (rec.stolen) ++stolen_records;
    }
    EXPECT_EQ(fleet.kv_migrations, migrated_records);
    EXPECT_EQ(fleet.work_steals, stolen_records);
    // Every byte the fabric carried is a migration or steal byte (each
    // counted bytes x hops on both sides of the ledger).
    EXPECT_EQ(r.fabric_bytes,
              fleet.kv_migrate_wire_bytes + fleet.steal_wire_bytes);
    if (pool == 2) {
      // Two replicas: every migration path is exactly one hop, so the
      // wire total is literally migrated blocks x block bytes.
      const ServingConfig& base = cfg.replicas.front();
      KvBlockManager probe(base.arch, base.model, 0, base.kv_block_tokens);
      EXPECT_EQ(fleet.kv_migrate_wire_bytes,
                fleet.kv_migrated_blocks * probe.block_bytes());
    }
  } else {
    EXPECT_TRUE(r.roles.empty());
    EXPECT_EQ(r.fabric_bytes, 0u);
    EXPECT_EQ(fleet.kv_migrations, 0u);
    EXPECT_EQ(fleet.kv_migrated_blocks, 0u);
    EXPECT_EQ(fleet.kv_migrate_wire_bytes, 0u);
    EXPECT_EQ(fleet.work_steals, 0u);
    EXPECT_EQ(fleet.steal_wire_bytes, 0u);
  }

  // ---- Scale-event log ----
  if (!cfg.autoscale.enabled) {
    EXPECT_TRUE(r.scale_events.empty());
    EXPECT_EQ(r.min_live_replicas, pool);
    EXPECT_EQ(r.peak_live_replicas, pool);
    EXPECT_DOUBLE_EQ(r.mean_live_replicas, static_cast<double>(pool));
  } else if (!cfg.disaggregated()) {
    std::uint32_t live = cfg.autoscale.min_replicas;
    sim::Cycles last_at = 0;
    for (const ScaleEvent& e : r.scale_events) {
      EXPECT_GE(e.at, last_at);  // monotone fleet clock
      last_at = e.at;
      EXPECT_EQ(e.tier, 0u);    // one tier: the whole fleet
      EXPECT_EQ(e.from, live);  // chained single-step transitions
      EXPECT_TRUE(e.to == e.from + 1 || e.to + 1 == e.from);
      EXPECT_GE(e.to, cfg.autoscale.min_replicas);
      EXPECT_LE(e.to, cfg.autoscale.max_replicas);
      live = e.to;
    }
    EXPECT_GE(r.min_live_replicas, cfg.autoscale.min_replicas);
    EXPECT_LE(r.peak_live_replicas, cfg.autoscale.max_replicas);
  } else {
    // Per-tier chains: each tier's from -> to transitions chain from its
    // own floor, step by one replica, and never leave [floor, tier pool].
    std::vector<std::uint32_t> floors(ntiers, cfg.autoscale.min_replicas);
    if (!cfg.autoscale.tier_min.empty()) {
      ASSERT_EQ(cfg.autoscale.tier_min.size(), ntiers);
      floors = cfg.autoscale.tier_min;
    }
    std::vector<std::uint32_t> live = floors;
    sim::Cycles last_at = 0;
    for (const ScaleEvent& e : r.scale_events) {
      EXPECT_GE(e.at, last_at);  // monotone shared fleet clock
      last_at = e.at;
      ASSERT_LT(e.tier, ntiers);
      EXPECT_EQ(e.from, live[e.tier]);
      EXPECT_TRUE(e.to == e.from + 1 || e.to + 1 == e.from);
      EXPECT_GE(e.to, floors[e.tier]);
      EXPECT_LE(e.to, tier_pool[e.tier]);
      live[e.tier] = e.to;
    }
    EXPECT_GE(r.min_live_replicas, live_floor);
    EXPECT_LE(r.peak_live_replicas, pool);
  }
  EXPECT_GE(r.mean_live_replicas, static_cast<double>(r.min_live_replicas));
  EXPECT_LE(r.mean_live_replicas, static_cast<double>(r.peak_live_replicas));

  // ---- Per-tier stats (disaggregated runs only) ----
  if (cfg.disaggregated()) {
    ASSERT_EQ(r.tiers.size(), ntiers);
    std::uint64_t tier_cycles = 0;
    std::size_t members = 0;
    for (std::size_t t = 0; t < ntiers; ++t) {
      const FleetResult::TierStats& tier = r.tiers[t];
      EXPECT_EQ(tier.role, tier_roles[t]);
      EXPECT_EQ(tier.members.size(), tier_pool[t]);
      for (const std::uint32_t m : tier.members) {
        ASSERT_LT(m, pool);
        EXPECT_EQ(cfg.roles[m], tier.role);
      }
      EXPECT_LE(tier.min_live, tier.peak_live);
      EXPECT_LE(tier.peak_live, tier_pool[t]);
      EXPECT_GE(tier.mean_live, static_cast<double>(tier.min_live));
      EXPECT_LE(tier.mean_live, static_cast<double>(tier.peak_live));
      tier_cycles += tier.replica_cycles;
      members += tier.members.size();
    }
    // The tiers partition the pool and their occupancy sums to the
    // fleet's replica-cycle cost exactly.
    EXPECT_EQ(members, pool);
    EXPECT_EQ(tier_cycles, r.replica_cycles);
  } else {
    EXPECT_TRUE(r.tiers.empty());
  }

  // ---- Cost accounting ----
  // Occupied replica-time is bounded by the whole pool running the whole
  // makespan, and is at least the live (routable) integral.
  const double budget =
      static_cast<double>(pool) * fleet.duration_s + 1e-9;
  EXPECT_LE(r.replica_seconds, budget);
  EXPECT_GE(r.replica_seconds,
            r.mean_live_replicas * fleet.duration_s - 1e-9);
  EXPECT_EQ(r.autoscaled, cfg.autoscale.enabled);
}

TEST(ServeInvariants, MatrixHoldsAcrossSeeds) {
  for (const MatrixPoint& p : matrix()) {
    for (const std::uint64_t seed : {1ull, 7ull, 13ull, 29ull, 97ull}) {
      const FleetConfig cfg = build_config(p, seed);
      const FleetResult r = FleetSim(cfg).run();
      check_invariants(cfg, r,
                       p.name + " seed " + std::to_string(seed));
    }
  }
}

/// The preempting matrix points must actually exercise preemption for at
/// least one seed — otherwise the KV invariants above are vacuous there.
TEST(ServeInvariants, PreemptingPointsActuallyPreempt) {
  std::uint64_t preemptions = 0;
  for (const MatrixPoint& p : matrix()) {
    if (p.preempt == PreemptPolicy::kNone) continue;
    for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
      preemptions += FleetSim(build_config(p, seed)).run().fleet.preemptions;
    }
  }
  EXPECT_GT(preemptions, 0u);
}

/// The cache-on matrix points must actually hit (and, under pool
/// pressure, exercise the eviction tiers) for at least one seed —
/// otherwise the blocks-in-use == 0 drain invariant above never sees a
/// populated cache.
TEST(ServeInvariants, CachePointsActuallyHitAndReclaim) {
  std::uint64_t hit_tokens = 0, tier_events = 0;
  for (const MatrixPoint& p : matrix()) {
    if (!p.prefix_cache) continue;
    for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
      const FleetMetrics m = FleetSim(build_config(p, seed)).run().fleet;
      EXPECT_TRUE(m.prefix_cache);
      hit_tokens += m.cache_hit_tokens;
      tier_events += m.cache_evict_blocks + m.cache_swap_out_blocks;
    }
  }
  EXPECT_GT(hit_tokens, 0u);
  EXPECT_GT(tier_events, 0u);
}

/// Non-vacuity at scale: the flat-state hot path (slot-map arena,
/// class-split ready lists, scheduler-driven stepping) must carry
/// saturated sweeps far past the matrix points with every conservation
/// and KV invariant intact, inside ctest's 300 s timeout on the sanitizer
/// leg too. Two rows, both arriving at 5e6 req/s into a queue that sheds
/// nothing:
///   - 100k chunked + paged-preemption requests under a 2048-token KV
///     budget, the configuration that exercises every arena transition:
///     admit, defer, preempt, recompute, retire, recycle;
///   - 1M whole-prompt decode-priority requests at the default budget,
///     the pure continuous-batching loop at million-request scale.
TEST(ServeInvariants, HundredThousandRequestSweep) {
  const std::pair<MatrixPoint, std::uint32_t> rows[] = {
      {{.name = "100k-chunked-paged",
        .policy = BatchPolicy::kChunkedMixed,
        .chunk_tokens = 64,
        .preempt = PreemptPolicy::kRecomputeYoungest,
        .kv_block_tokens = 16,
        .kv_budget_tokens = 2048,  // tight enough that eviction fires
        .replicas = 1,
        .rate = 5e6},
       100000},
      {{.name = "1m-decode",
        .policy = BatchPolicy::kDecodePriority,
        .replicas = 1,
        .rate = 5e6},
       1000000}};
  for (const auto& [p, requests] : rows) {
    FleetConfig cfg = build_config(p, /*seed=*/42);
    cfg.traffic.num_requests = requests;  // the fleet-level arrival stream
    ServingConfig& base = cfg.replicas.front();
    base.scheduler.max_batch = 8;
    base.scheduler.max_in_flight = 64;
    base.scheduler.queue_capacity = requests;  // shed nothing at the door
    // Per-record checks stay O(n); the sample vectors behind the
    // percentile summaries are exercised at real scale too.
    const FleetResult r = FleetSim(cfg).run();
    check_invariants(cfg, r, p.name);
    EXPECT_EQ(r.fleet.completed, requests) << p.name;
    if (p.preempt != PreemptPolicy::kNone) {
      // The paged pressure is non-vacuous.
      EXPECT_GT(r.fleet.preemptions, 0u) << p.name;
    }
  }
}

/// The disaggregated matrix points must actually migrate (and, across the
/// steal-prone shapes, actually steal) for at least one seed — otherwise
/// the KV-transfer conservation checks above are vacuous.
TEST(ServeInvariants, DisaggPointsActuallyMigrate) {
  std::uint64_t migrations = 0, blocks = 0, steals = 0;
  for (const MatrixPoint& p : matrix()) {
    if (p.roles.empty()) continue;
    for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
      const FleetMetrics m = FleetSim(build_config(p, seed)).run().fleet;
      migrations += m.kv_migrations;
      blocks += m.kv_migrated_blocks;
      steals += m.work_steals;
    }
  }
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(blocks, 0u);
  // At least one matrix point x seed must exercise work stealing, or the
  // steal-side conservation terms above are vacuous.
  EXPECT_GT(steals, 0u);
}

/// Cycle tiling under disaggregation: with an Observer attached every
/// replica's categories — now including kv-migrate — must still tile
/// [0, makespan] exactly (Observer::finalize throws otherwise), and
/// observation must not perturb the run's results.
TEST(ServeInvariants, DisaggTilingHoldsAndObservationIsNeutral) {
  for (const MatrixPoint& p : matrix()) {
    if (p.roles.empty()) continue;
    SCOPED_TRACE(p.name);
    const FleetConfig cfg = build_config(p, /*seed=*/7);
    const FleetResult plain = FleetSim(cfg).run();
    Observer obs(cfg.replicas.size(), cfg.replicas.front().arch.frequency_hz);
    const FleetResult observed = FleetSim(cfg).run(&obs);  // finalize asserts
    EXPECT_EQ(observed.fleet.completed, plain.fleet.completed);
    EXPECT_EQ(observed.fleet.kv_migrations, plain.fleet.kv_migrations);
    EXPECT_EQ(observed.fleet.kv_migrated_blocks,
              plain.fleet.kv_migrated_blocks);
    EXPECT_EQ(observed.fleet.kv_migrate_wire_bytes,
              plain.fleet.kv_migrate_wire_bytes);
    EXPECT_EQ(observed.fleet.work_steals, plain.fleet.work_steals);
    EXPECT_EQ(observed.fabric_bytes, plain.fabric_bytes);
    EXPECT_DOUBLE_EQ(observed.fleet.duration_s, plain.fleet.duration_s);
  }
}

/// Independent oracle for the inter-token gap series: every request's
/// gaps are rebuilt from the Observer's emission stamps (kFirstToken and
/// kDecode, one per host-visible token) as the differences between
/// consecutive emissions, pooled, sorted and summarized from their
/// millisecond values: the sum in ascending order for the mean, and
/// util::percentile's interpolation between neighbors. The fleet's `inter_token_gap_ms`, built by an entirely different road
/// (per-replica value->count stores, compacted and merged), must equal it
/// bit for bit, and every record's `max_token_gap_ms` must be the
/// request's largest rebuilt gap.
TEST(ServeInvariants, InterTokenGapsMatchObservedEmissions) {
  std::size_t gaps_checked = 0;
  for (const MatrixPoint& p : matrix()) {
    for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
      SCOPED_TRACE(p.name + " seed " + std::to_string(seed));
      const FleetConfig cfg = build_config(p, seed);
      const core::ArchConfig& arch = cfg.replicas.front().arch;
      Observer obs(cfg.replicas.size(), arch.frequency_hz);
      const FleetResult r = FleetSim(cfg).run(&obs);

      std::map<std::uint32_t, sim::Cycles> last_emission, max_gap;
      std::vector<sim::Cycles> gaps;
      for (const ObservedEvent& e : obs.events()) {
        if (e.kind != LifecycleEvent::kFirstToken &&
            e.kind != LifecycleEvent::kDecode) {
          continue;
        }
        const auto last = last_emission.find(e.request);
        if (last != last_emission.end()) {
          const sim::Cycles gap = e.at - last->second;
          gaps.push_back(gap);
          max_gap[e.request] = std::max(max_gap[e.request], gap);
        }
        last_emission[e.request] = e.at;
      }
      gaps_checked += gaps.size();

      std::sort(gaps.begin(), gaps.end());
      const util::PercentileSummary& got = r.fleet.inter_token_gap_ms;
      ASSERT_EQ(got.count, gaps.size());
      if (!gaps.empty()) {
        double sum = 0.0;
        for (sim::Cycles g : gaps) sum += arch.cycles_to_ms(g);
        EXPECT_EQ(got.mean, sum / static_cast<double>(gaps.size()));
        for (const auto& [pct, value] :
             {std::pair{50.0, got.p50}, std::pair{95.0, got.p95},
              std::pair{99.0, got.p99}}) {
          const double rank =
              (pct / 100.0) * static_cast<double>(gaps.size() - 1);
          const auto lo = static_cast<std::size_t>(rank);
          const auto hi = std::min(lo + 1, gaps.size() - 1);
          const double frac = rank - static_cast<double>(lo);
          EXPECT_EQ(value, arch.cycles_to_ms(gaps[lo]) * (1.0 - frac) +
                               arch.cycles_to_ms(gaps[hi]) * frac)
              << "p" << pct;
        }
      }
      for (const RequestRecord& rec : r.fleet.requests) {
        const auto g = max_gap.find(rec.id);
        EXPECT_EQ(rec.max_token_gap_ms,
                  arch.cycles_to_ms(g == max_gap.end() ? 0 : g->second))
            << "request " << rec.id;
      }
    }
  }
  EXPECT_GT(gaps_checked, 0u);
}

/// And the autoscaled points must actually scale for at least one seed —
/// otherwise the scale-log invariants are vacuous.
TEST(ServeInvariants, AutoscaledPointsActuallyScale) {
  std::size_t events = 0;
  for (const MatrixPoint& p : matrix()) {
    if (!p.autoscale) continue;
    for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
      events += FleetSim(build_config(p, seed)).run().scale_events.size();
    }
  }
  EXPECT_GT(events, 0u);
}

}  // namespace
}  // namespace looplynx::serve
