// Golden determinism fixture: the CI workflow's byte-identical sweep gate,
// promoted into plain ctest so a determinism regression fails locally —
// not just in the workflow.
//
// A canonical suite of serve-layer runs (batch policies x chunking x
// paged preemption x fleets x autoscaling, over seeded Poisson, seeded
// bursty and explicit arrival schedules) is serialized into one canonical
// text: integers as decimal, doubles as the hex of their raw IEEE-754
// bits (exact, and independent of any libc formatting choices). Its
// SHA-256 must match the checked-in digest
// (tests/golden/serve_golden.hpp).
//
// The run-twice CI pairs only prove a binary agrees with itself; this
// fixture pins the *absolute* behavior across commits: any change to
// scheduling order, cost arithmetic, traffic generation, routing
// tie-breaks or the autoscaler's decision sequence moves the hash. After
// an intentional behavior change, regenerate with
// tools/regen_determinism_golden.sh and review the new canonical text
// (set GOLDEN_PRINT=1 to dump it) before committing the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/autoscaler.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "serve/serving_sim.hpp"
#include "serve/traffic.hpp"
#include "tests/golden/serve_golden.hpp"
#include "util/sha256.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

/// Exact-bits double formatting: the raw IEEE-754 bit pattern in hex.
/// Unlike printf's "%a" — whose leading digit and padding the C standard
/// leaves implementation-defined — this depends on no libc formatting
/// choices at all, so the canonical text is identical wherever the
/// arithmetic is.
std::string hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

void serialize(std::string& out, const std::string& tag,
               const FleetMetrics& m) {
  out += "== " + tag + "\n";
  out += "counts " + std::to_string(m.offered) + " " +
         std::to_string(m.completed) + " " + std::to_string(m.rejected) +
         " " + std::to_string(m.slo_good) + "\n";
  out += "tokens " + std::to_string(m.total_tokens) + " " +
         std::to_string(m.decode_tokens) + "\n";
  out += "sched " + std::to_string(m.iterations) + " " +
         std::to_string(m.prefill_chunk_steps) + " " +
         std::to_string(m.chunked_prompts) + " " +
         std::to_string(m.decode_stall_iterations) + " " +
         std::to_string(m.peak_in_flight) + " " +
         std::to_string(m.peak_queue_depth) + "\n";
  out += "kv " + std::to_string(m.kv_peak_used_blocks) + " " +
         std::to_string(m.kv_capacity_blocks) + " " +
         std::to_string(m.kv_stall_events) + " " +
         std::to_string(m.kv_peak_frag_tokens) + " " +
         std::to_string(m.preemptions) + " " +
         std::to_string(m.recompute_tokens) + "\n";
  out += "time " + hex(m.duration_s) + " " + hex(m.busy_fraction) + "\n";
  out += "lat " + hex(m.ttft_ms.p50) + " " + hex(m.ttft_ms.p99) + " " +
         hex(m.token_ms.p99) + " " + hex(m.e2e_ms.p99) + " " +
         hex(m.queue_wait_ms.p99) + " " + hex(m.inter_token_gap_ms.p99) +
         "\n";
  for (const RequestRecord& r : m.requests) {
    out += "req " + std::to_string(r.id) + " " + std::to_string(r.replica) +
           " " + std::to_string(r.live_replicas) + " " +
           std::to_string(r.prefill_chunks) + " " +
           std::to_string(r.preemptions) + " " +
           (r.rejected ? "R " : "C ") + hex(r.ttft_ms) + " " +
           hex(r.e2e_ms) + "\n";
  }
}

void serialize(std::string& out, const std::string& tag,
               const FleetResult& r) {
  serialize(out, tag, r.fleet);
  // Plain appends here: GCC 12's -Wrestrict false-positive (PR105651)
  // fires on `literal + std::string&&` chains when inlined.
  out += "routed";
  for (const std::uint64_t n : r.routed) {
    out += " ";
    out += std::to_string(n);
  }
  out += "\n";
  out += "balance ";
  out += hex(r.load_imbalance) + " " + hex(r.ttft_p99_spread_ms) + "\n";
  out += "live " + std::to_string(r.min_live_replicas) + " " +
         std::to_string(r.peak_live_replicas) + " " +
         hex(r.mean_live_replicas) + " " +
         std::to_string(r.replica_cycles) + "\n";
  for (const ScaleEvent& e : r.scale_events) {
    out += "scale " + std::to_string(e.at) + " " + std::to_string(e.from) +
           " " + std::to_string(e.to) + " " +
           scale_trigger_name(e.trigger) + "\n";
  }
}

/// Cache-point serialization: the base record plus every prefix-cache
/// counter and the per-request cached-prefix split. Only the cache sweep
/// uses this — the pre-cache sweeps keep their exact serialization (and
/// digest).
void serialize_cache(std::string& out, const std::string& tag,
                     const FleetMetrics& m) {
  serialize(out, tag, m);
  out += "cache " + std::to_string(m.cache_lookups) + " " +
         std::to_string(m.cache_lookup_tokens) + " " +
         std::to_string(m.cache_hit_requests) + " " +
         std::to_string(m.cache_hit_tokens) + " " +
         std::to_string(m.saved_prefill_cycles) + " " +
         std::to_string(m.prefill_cycles) + "\n";
  out += "cacheblk " + std::to_string(m.cache_insert_blocks) + " " +
         std::to_string(m.cache_evict_blocks) + " " +
         std::to_string(m.cache_cow_events) + " " +
         std::to_string(m.cache_dedup_blocks) + " " +
         std::to_string(m.cache_swap_out_blocks) + " " +
         std::to_string(m.cache_swap_in_blocks) + " " +
         std::to_string(m.cache_blocks_at_end) + "\n";
  out += "cachedreq";
  for (const RequestRecord& r : m.requests) {
    // Plain appends: GCC 12's -Wrestrict false-positive (PR105651).
    out += " ";
    out += std::to_string(r.cached_prefix_tokens);
  }
  out += "\n";
}

/// Disaggregated-point serialization: the base fleet record plus the
/// migration/steal counters, the fabric byte total and every request's
/// migrated/stolen split. Only the disagg sweep uses this — the symmetric
/// sweeps keep their exact serialization (and digest).
void serialize_disagg(std::string& out, const std::string& tag,
                      const FleetResult& r) {
  serialize(out, tag, r);
  out += "roles";
  for (const ReplicaRole role : r.roles) {
    out += " ";
    out += replica_role_name(role);
  }
  out += "\n";
  // Plain appends: GCC 12's -Wrestrict false-positive (PR105651).
  const FleetMetrics& m = r.fleet;
  out += "migrate ";
  out += std::to_string(m.kv_migrations);
  out += " ";
  out += std::to_string(m.kv_migrated_blocks);
  out += " ";
  out += std::to_string(m.kv_migrate_wire_bytes);
  out += " ";
  out += std::to_string(r.fabric_bytes);
  out += " ";
  out += hex(m.kv_migrate_ingest_ms);
  out += "\n";
  out += "steal ";
  out += std::to_string(m.work_steals);
  out += " ";
  out += std::to_string(m.steal_wire_bytes);
  out += "\n";
  out += "handoff";
  for (const RequestRecord& req : m.requests) {
    out += req.migrated ? " M" : (req.stolen ? " S" : " -");
  }
  out += "\n";
  // Per-tier live stats and tier-tagged scale transitions (PR 10): the
  // base record's "scale" lines stay tier-blind so the symmetric digest
  // cannot move; disagg points pin the tier attribution here.
  for (const FleetResult::TierStats& t : r.tiers) {
    out += "tier ";
    out += replica_role_name(t.role);
    for (const std::uint32_t member : t.members) {
      out += " ";
      out += std::to_string(member);
    }
    out += " | " + std::to_string(t.min_live) + " " +
           std::to_string(t.peak_live) + " " + hex(t.mean_live) + " " +
           std::to_string(t.replica_cycles) + " " +
           hex(t.ttft_p99_spread_ms) + "\n";
  }
  for (const ScaleEvent& e : r.scale_events) {
    out += "tscale " + std::to_string(e.tier) + " " + std::to_string(e.at) +
           " " + std::to_string(e.from) + " " + std::to_string(e.to) + " " +
           scale_trigger_name(e.trigger) + "\n";
  }
}

model::ModelConfig golden_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

ServingConfig golden_base() {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = golden_model();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"skewed",
                                  {{workload::make_scenario(8, 16), 0.8},
                                   {workload::make_scenario(192, 48), 0.2}}};
  cfg.traffic.num_requests = 32;
  cfg.traffic.arrival_rate_per_s = 300.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  cfg.slo.ttft_ms = 5.0;
  cfg.slo.token_ms = 2.0;
  cfg.keep_request_records = true;
  return cfg;
}

std::uint64_t token_budget(const ServingConfig& cfg, std::uint32_t tokens) {
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  return tokens * probe.bytes_per_token_per_node();
}

/// The canonical suite. Mirrors the CI determinism gate's coverage
/// (policies x chunking x paged preemption x fleet x autoscale) at cosim
/// scale, plus an explicit-arrival fleet point whose output involves no
/// RNG or libm at all.
std::string canonical_sweep() {
  std::string out;

  {
    ServingConfig cfg = golden_base();
    serialize(out, "single-prefill-poisson", ServingSim(cfg).run());
  }
  {
    ServingConfig cfg = golden_base();
    cfg.scheduler.policy = BatchPolicy::kDecodePriority;
    serialize(out, "single-decode-poisson", ServingSim(cfg).run());
  }
  {
    ServingConfig cfg = golden_base();
    cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
    cfg.scheduler.max_tokens_per_iter = 16;
    serialize(out, "single-chunked-poisson", ServingSim(cfg).run());
  }
  {
    ServingConfig cfg = golden_base();
    cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
    cfg.scheduler.max_tokens_per_iter = 16;
    cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    cfg.kv_block_tokens = 4;
    cfg.kv_budget_bytes_per_node = token_budget(cfg, 288);
    cfg.traffic.arrival_rate_per_s = 1200.0;
    serialize(out, "single-paged-recompute", ServingSim(cfg).run());
  }
  {
    ServingConfig cfg = golden_base();
    cfg.traffic.process = ArrivalProcess::kBursty;
    cfg.traffic.burst_factor = 4.0;
    cfg.traffic.burst_fraction = 0.25;
    cfg.traffic.burst_period_s = 0.05;
    serialize(out, "single-bursty", ServingSim(cfg).run());
  }
  {
    const FleetConfig cfg = FleetConfig::homogeneous(
        golden_base(), 3, BalancerPolicy::kJoinShortestQueue);
    serialize(out, "fleet-jsq-3", FleetSim(cfg).run());
  }
  {
    ServingConfig base = golden_base();
    base.scheduler.policy = BatchPolicy::kChunkedMixed;
    base.scheduler.max_tokens_per_iter = 16;
    base.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    base.kv_block_tokens = 4;
    base.kv_budget_bytes_per_node = token_budget(base, 288);
    base.traffic.arrival_rate_per_s = 1200.0;
    const FleetConfig cfg =
        FleetConfig::homogeneous(base, 2, BalancerPolicy::kKvAware);
    serialize(out, "fleet-kv-paged-2", FleetSim(cfg).run());
  }
  {
    ServingConfig base = golden_base();
    base.traffic.process = ArrivalProcess::kBursty;
    base.traffic.num_requests = 48;
    base.traffic.arrival_rate_per_s = 400.0;
    base.traffic.burst_factor = 4.0;
    base.traffic.burst_fraction = 0.25;
    base.traffic.burst_period_s = 0.05;
    base.scheduler.max_in_flight = 6;
    FleetConfig cfg = FleetConfig::homogeneous(
        base, 3, BalancerPolicy::kJoinShortestQueue);
    cfg.autoscale.enabled = true;
    cfg.autoscale.policy = ScalePolicy::kQueueDepth;
    cfg.autoscale.min_replicas = 1;
    cfg.autoscale.max_replicas = 3;
    cfg.autoscale.eval_interval_ms = 2.0;
    cfg.autoscale.ttft_window_ms = 10.0;
    cfg.autoscale.queue_high = 1.5;
    cfg.autoscale.queue_low = 0.25;
    cfg.autoscale.up_evals = 1;
    cfg.autoscale.down_evals = 2;
    cfg.autoscale.cooldown_evals = 1;
    serialize(out, "fleet-autoscale-queue", FleetSim(cfg).run());
    cfg.autoscale.policy = ScalePolicy::kHybrid;
    serialize(out, "fleet-autoscale-hybrid", FleetSim(cfg).run());
  }
  {
    // Explicit schedule: integer arrival cycles, no RNG, no libm — this
    // point is bit-portable even across libm versions, so a golden
    // mismatch isolated to the seeded points implicates the math
    // library, not the engine.
    ServingConfig base = golden_base();
    base.traffic.explicit_arrivals.clear();
    for (std::uint32_t i = 0; i < 24; ++i) {
      base.traffic.explicit_arrivals.push_back(
          Arrival{static_cast<sim::Cycles>(i) * 40000,
                  i % 5 == 0 ? workload::make_scenario(192, 48)
                             : workload::make_scenario(8, 16)});
    }
    const FleetConfig cfg =
        FleetConfig::homogeneous(base, 2, BalancerPolicy::kRoundRobin);
    serialize(out, "fleet-explicit-rr", FleetSim(cfg).run());
  }
  {
    // Closed-loop clients: each re-submits on its request's completion, so
    // the order completions wake clients feeds back into the arrival
    // sequence — pinned on one replica and across a JSQ fleet, under
    // chunked prefill with paged recompute preemption.
    ServingConfig base = golden_base();
    base.traffic.process = ArrivalProcess::kClosedLoop;
    base.traffic.clients = 6;
    base.traffic.think_time_s = 0.001;
    base.scheduler.policy = BatchPolicy::kChunkedMixed;
    base.scheduler.max_tokens_per_iter = 16;
    base.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    base.kv_block_tokens = 4;
    base.kv_budget_bytes_per_node = token_budget(base, 288);
    serialize(out, "single-closed-loop-paged", ServingSim(base).run());
    const FleetConfig cfg = FleetConfig::homogeneous(
        base, 3, BalancerPolicy::kJoinShortestQueue);
    serialize(out, "fleet-closed-loop-jsq-3", FleetSim(cfg).run());
  }
  return out;
}

/// The canonical *cache* sweep: multi-turn chat traffic (the only traffic
/// whose prompt contents repeat across requests) through the
/// content-addressed prefix cache — plain, under the cost-aware preempt
/// policy, with the swap tier, and across a fleet. Pins the full cache
/// counter set and every request's cached-prefix split on top of the base
/// record; kept separate from canonical_sweep() so the pre-cache digest
/// never moves.
std::string canonical_cache_sweep() {
  std::string out;
  const auto chat_base = [] {
    ServingConfig cfg = golden_base();
    ChatTrafficConfig chat;
    chat.conversations = 3;
    chat.turns = 3;
    chat.system_prompt_tokens = 24;
    chat.user_turn_tokens = 8;
    chat.reply_tokens = 8;
    cfg.traffic.scripted_shapes = chat_turn_shapes(chat);
    cfg.traffic.num_requests =
        static_cast<std::uint32_t>(cfg.traffic.scripted_shapes.size());
    cfg.traffic.arrival_rate_per_s = 900.0;
    cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
    cfg.scheduler.max_tokens_per_iter = 16;
    cfg.kv_block_tokens = 4;
    cfg.prefix_cache = true;
    return cfg;
  };
  {
    ServingConfig cfg = chat_base();
    serialize_cache(out, "cache-chat-whole-footprint", ServingSim(cfg).run());
  }
  {
    ServingConfig cfg = chat_base();
    cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    cfg.kv_budget_bytes_per_node = token_budget(cfg, 96);
    serialize_cache(out, "cache-chat-paged-youngest", ServingSim(cfg).run());
  }
  {
    ServingConfig cfg = chat_base();
    cfg.scheduler.preempt = PreemptPolicy::kRecomputeCostAware;
    cfg.kv_budget_bytes_per_node = token_budget(cfg, 96);
    cfg.kv_swap = true;
    serialize_cache(out, "cache-chat-swap-cost-aware", ServingSim(cfg).run());
  }
  {
    ServingConfig base = chat_base();
    base.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    base.kv_budget_bytes_per_node = token_budget(base, 96);
    const FleetConfig cfg =
        FleetConfig::homogeneous(base, 2, BalancerPolicy::kJoinShortestQueue);
    const FleetResult r = FleetSim(cfg).run();
    serialize_cache(out, "cache-chat-fleet-jsq-2", r.fleet);
  }
  // Heavy pressure: 16 conversations x 5 turns whose histories far outgrow
  // a tight pool, so reclaim picks victims from a large cached set over and
  // over — the victim order over a big cache is pinned here, not only by
  // the benchmark's sim_digest.
  const auto pressure_base = [&chat_base] {
    ServingConfig cfg = chat_base();
    ChatTrafficConfig chat;
    chat.conversations = 16;
    chat.turns = 5;
    chat.system_prompt_tokens = 24;
    chat.user_turn_tokens = 8;
    chat.reply_tokens = 8;
    cfg.traffic.scripted_shapes = chat_turn_shapes(chat);
    cfg.traffic.num_requests =
        static_cast<std::uint32_t>(cfg.traffic.scripted_shapes.size());
    cfg.scheduler.preempt = PreemptPolicy::kRecomputeCostAware;
    cfg.kv_budget_bytes_per_node = token_budget(cfg, 128);
    return cfg;
  };
  {
    // Swap tier on: every victim's rebuild outprices the DMA round-trip at
    // this scale, so victims swap out and come back on a later turn's hit.
    ServingConfig cfg = pressure_base();
    cfg.kv_swap = true;
    const FleetMetrics m = ServingSim(cfg).run();
    EXPECT_GT(m.cache_swap_out_blocks, 0u);
    EXPECT_GT(m.cache_swap_in_blocks, 0u);
    serialize_cache(out, "cache-chat-pressure-swap", m);
  }
  {
    // Swap tier off: every victim takes the discard/erase path.
    const FleetMetrics m = ServingSim(pressure_base()).run();
    EXPECT_GT(m.cache_evict_blocks, 0u);
    serialize_cache(out, "cache-chat-pressure-discard", m);
  }
  return out;
}

/// The canonical *disaggregated* sweep: prefill/decode role splits with
/// KV migration (and, on the jsq point, work stealing) over the ring
/// fabric, plus a per-tier autoscaled point. Pins the migration
/// counters, fabric byte totals, every request's migrated/stolen split,
/// the per-tier live stats and the tier-tagged scale log on top of the
/// base fleet record; kept separate from canonical_sweep() so the
/// symmetric digest never moves.
std::string canonical_disagg_sweep() {
  std::string out;
  const auto disagg_base = [](std::uint32_t n) {
    FleetConfig cfg = FleetConfig::homogeneous(
        golden_base(), n, BalancerPolicy::kJoinShortestQueue);
    // 64-byte hops at a modest rate so migrations take visible wire time.
    cfg.kv_link.bytes_per_cycle = 16.0;
    return cfg;
  };
  {
    FleetConfig cfg = disagg_base(2);
    cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
    serialize_disagg(out, "disagg-1p1d-jsq", FleetSim(cfg).run());
  }
  {
    FleetConfig cfg = disagg_base(3);
    cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                 ReplicaRole::kDecode};
    cfg.balancer = BalancerPolicy::kRoundRobin;
    serialize_disagg(out, "disagg-2p1d-rr", FleetSim(cfg).run());
  }
  {
    // Paged + chunked prefill on the prefill side: migration fires on the
    // *last* chunk, and block-granular lists cross the fabric.
    ServingConfig base = golden_base();
    base.scheduler.policy = BatchPolicy::kChunkedMixed;
    base.scheduler.max_tokens_per_iter = 16;
    base.kv_block_tokens = 4;
    FleetConfig cfg = FleetConfig::homogeneous(
        base, 3, BalancerPolicy::kJoinShortestQueue);
    cfg.kv_link.bytes_per_cycle = 16.0;
    cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kGeneral,
                 ReplicaRole::kDecode};
    serialize_disagg(out, "disagg-paged-mixed-roles", FleetSim(cfg).run());
  }
  {
    // Per-tier autoscaling (PR 10): two controllers on the shared fleet
    // clock, tier-tagged scale events, and KV migrations crossing
    // live-mask changes — the autoscaler's decision sequence is part of
    // the pinned bytes.
    ServingConfig base = golden_base();
    base.traffic.process = ArrivalProcess::kBursty;
    base.traffic.num_requests = 48;
    base.traffic.arrival_rate_per_s = 400.0;
    base.traffic.burst_factor = 4.0;
    base.traffic.burst_fraction = 0.25;
    base.traffic.burst_period_s = 0.05;
    base.scheduler.max_in_flight = 6;
    FleetConfig cfg = FleetConfig::homogeneous(
        base, 3, BalancerPolicy::kJoinShortestQueue);
    cfg.kv_link.bytes_per_cycle = 16.0;
    cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                 ReplicaRole::kDecode};
    cfg.autoscale.enabled = true;
    cfg.autoscale.policy = ScalePolicy::kHybrid;
    cfg.autoscale.tier_min = {1, 1};
    cfg.autoscale.tier_max = {2, 1};
    cfg.autoscale.eval_interval_ms = 2.0;
    cfg.autoscale.ttft_window_ms = 10.0;
    cfg.autoscale.queue_high = 1.5;
    cfg.autoscale.queue_low = 0.25;
    cfg.autoscale.up_evals = 1;
    cfg.autoscale.down_evals = 2;
    cfg.autoscale.cooldown_evals = 1;
    serialize_disagg(out, "disagg-autoscale-2p1d-hybrid",
                     FleetSim(cfg).run());
  }
  return out;
}

/// The canonical *observed* export: two sweep points re-run with an
/// Observer attached — the paged-recompute single (preempt/recompute
/// lifecycle traffic) and the queue-policy autoscaled fleet (scale/drain
/// instants) — serialized through both exporters. Every byte of both
/// formats is pinned: trace-event timestamps, Prometheus line order,
/// histogram bucketing, the lot (DESIGN.md §7 determinism rules).
std::string canonical_observed_export() {
  std::string out;
  const auto export_both = [&out](const Observer& obs,
                                  const std::string& tag) {
    std::ostringstream trace, prom;
    obs.write_chrome_trace(trace);
    obs.write_prometheus(prom);
    out += "==== " + tag + " chrome-trace\n" + trace.str() + "\n";
    out += "==== " + tag + " prometheus\n" + prom.str();
  };
  {
    ServingConfig cfg = golden_base();
    cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
    cfg.scheduler.max_tokens_per_iter = 16;
    cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    cfg.kv_block_tokens = 4;
    cfg.kv_budget_bytes_per_node = token_budget(cfg, 288);
    cfg.traffic.arrival_rate_per_s = 1200.0;
    Observer obs(1, cfg.arch.frequency_hz);
    ServingSim(cfg).run(&obs);
    export_both(obs, "single-paged-recompute");
  }
  {
    ServingConfig base = golden_base();
    base.traffic.process = ArrivalProcess::kBursty;
    base.traffic.num_requests = 48;
    base.traffic.arrival_rate_per_s = 400.0;
    base.traffic.burst_factor = 4.0;
    base.traffic.burst_fraction = 0.25;
    base.traffic.burst_period_s = 0.05;
    base.scheduler.max_in_flight = 6;
    FleetConfig cfg = FleetConfig::homogeneous(
        base, 3, BalancerPolicy::kJoinShortestQueue);
    cfg.autoscale.enabled = true;
    cfg.autoscale.policy = ScalePolicy::kQueueDepth;
    cfg.autoscale.min_replicas = 1;
    cfg.autoscale.max_replicas = 3;
    cfg.autoscale.eval_interval_ms = 2.0;
    cfg.autoscale.ttft_window_ms = 10.0;
    cfg.autoscale.queue_high = 1.5;
    cfg.autoscale.queue_low = 0.25;
    cfg.autoscale.up_evals = 1;
    cfg.autoscale.down_evals = 2;
    cfg.autoscale.cooldown_evals = 1;
    Observer obs(3, base.arch.frequency_hz);
    FleetSim(cfg).run(&obs);
    export_both(obs, "fleet-autoscale-queue");
  }
  return out;
}

TEST(DeterminismGolden, CanonicalSweepMatchesCheckedInDigest) {
  const std::string sweep = canonical_sweep();
  const std::string digest = util::sha256_hex(sweep);
  if (std::getenv("GOLDEN_PRINT") != nullptr) {
    std::fputs(sweep.c_str(), stdout);
    std::printf("SHA256 %s\n", digest.c_str());
    GTEST_SKIP() << "GOLDEN_PRINT set: emitted canonical sweep, skipped "
                    "the digest comparison";
  }
  EXPECT_EQ(digest, golden::kServeSweepSha256)
      << "The canonical serve sweep changed. If this is an intentional "
         "behavior change, inspect it (GOLDEN_PRINT=1 "
         "./test_determinism_golden) and regenerate the digest with "
         "tools/regen_determinism_golden.sh; otherwise a determinism "
         "regression landed.";
}

TEST(DeterminismGolden, CanonicalObservedExportMatchesCheckedInDigest) {
  const std::string text = canonical_observed_export();
  const std::string digest = util::sha256_hex(text);
  if (std::getenv("GOLDEN_PRINT") != nullptr) {
    std::fputs(text.c_str(), stdout);
    std::printf("SHA256-OBSERVE %s\n", digest.c_str());
    GTEST_SKIP() << "GOLDEN_PRINT set: emitted canonical exports, skipped "
                    "the digest comparison";
  }
  EXPECT_EQ(digest, golden::kObserveExportSha256)
      << "The canonical observed export changed. An intentional exporter "
         "or scheduling change moves this hash — inspect it (GOLDEN_PRINT=1 "
         "./test_determinism_golden) and regenerate with "
         "tools/regen_determinism_golden.sh; anything else is a "
         "determinism regression in the observability path.";
}

TEST(DeterminismGolden, CanonicalDisaggSweepMatchesCheckedInDigest) {
  const std::string text = canonical_disagg_sweep();
  const std::string digest = util::sha256_hex(text);
  if (std::getenv("GOLDEN_PRINT") != nullptr) {
    std::fputs(text.c_str(), stdout);
    std::printf("SHA256-DISAGG %s\n", digest.c_str());
    GTEST_SKIP() << "GOLDEN_PRINT set: emitted canonical disagg sweep, "
                    "skipped the digest comparison";
  }
  EXPECT_EQ(digest, golden::kDisaggSweepSha256)
      << "The canonical disaggregated sweep changed. An intentional "
         "migration or scheduling change moves this hash — inspect it "
         "(GOLDEN_PRINT=1 ./test_determinism_golden) and regenerate with "
         "tools/regen_determinism_golden.sh; anything else is a "
         "determinism regression in the disaggregation path.";
}

TEST(DeterminismGolden, CanonicalCacheSweepMatchesCheckedInDigest) {
  const std::string text = canonical_cache_sweep();
  const std::string digest = util::sha256_hex(text);
  if (std::getenv("GOLDEN_PRINT") != nullptr) {
    std::fputs(text.c_str(), stdout);
    std::printf("SHA256-CACHE %s\n", digest.c_str());
    GTEST_SKIP() << "GOLDEN_PRINT set: emitted canonical cache sweep, "
                    "skipped the digest comparison";
  }
  EXPECT_EQ(digest, golden::kCacheSweepSha256)
      << "The canonical prefix-cache sweep changed. An intentional cache "
         "or scheduling change moves this hash — inspect it (GOLDEN_PRINT=1 "
         "./test_determinism_golden) and regenerate with "
         "tools/regen_determinism_golden.sh; anything else is a "
         "determinism regression in the cache path.";
}

/// The suite itself must be reproducible within one process (fresh cost
/// probes, fresh engines): if this fails, the digest above is noise.
TEST(DeterminismGolden, CanonicalSweepIsReproducibleInProcess) {
  EXPECT_EQ(util::sha256_hex(canonical_sweep()),
            util::sha256_hex(canonical_sweep()));
  EXPECT_EQ(util::sha256_hex(canonical_observed_export()),
            util::sha256_hex(canonical_observed_export()));
  EXPECT_EQ(util::sha256_hex(canonical_cache_sweep()),
            util::sha256_hex(canonical_cache_sweep()));
  EXPECT_EQ(util::sha256_hex(canonical_disagg_sweep()),
            util::sha256_hex(canonical_disagg_sweep()));
}

/// Known-answer test for the hasher itself (FIPS 180-4 vectors), so a
/// golden failure cannot be a broken SHA-256.
TEST(DeterminismGolden, Sha256KnownAnswers) {
  EXPECT_EQ(util::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(util::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(util::sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // 64-byte message: exercises the exact-two-block padding path.
  EXPECT_EQ(util::sha256_hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

}  // namespace
}  // namespace looplynx::serve
