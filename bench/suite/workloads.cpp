// The suite's four workloads. Every one runs GPT-2-medium on the paper's
// 2-node replica with open-loop arrivals drawn from the run's seed; rates
// sit at roughly 75-80% of the knee where each fleet's TTFT tail starts to
// climb. Why each exists is in README.md and BENCHMARK.json.
#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/traffic.hpp"
#include "suite.hpp"
#include "workload/mix.hpp"

namespace looplynx::suite {

namespace {

serve::ServingConfig replica_base(std::uint64_t seed) {
  serve::ServingConfig base;
  base.arch = core::ArchConfig::two_node();
  base.model = model::gpt2_medium();
  base.cost_probe_stride = 1;
  base.traffic.seed = seed;
  return base;
}

/// Chunked prefill at a 64-token budget over 16-token paged KV with
/// recompute preemption: the vLLM-style replica of W1 and W3.
void chunked_paged(serve::ServingConfig& cfg) {
  cfg.scheduler.policy = serve::BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 64;
  cfg.scheduler.preempt = serve::PreemptPolicy::kRecomputeYoungest;
  cfg.kv_block_tokens = 16;
}

/// Collects failed checks under the workload's name.
struct Checks {
  const char* workload;
  std::vector<std::string> errors;

  void require(bool ok, const char* what) {
    if (!ok) errors.push_back(std::string(workload) + ": " + what);
  }
};

serve::FleetConfig fleet_steady(std::uint64_t seed) {
  serve::ServingConfig base = replica_base(seed);
  chunked_paged(base);
  base.traffic.mix = workload::mixed_fleet();
  base.traffic.arrival_rate_per_s = 35.0;
  base.traffic.num_requests = 40000;
  return serve::FleetConfig::homogeneous(
      base, 64, serve::BalancerPolicy::kJoinShortestQueue);
}

std::vector<std::string> fleet_steady_vacuity(const serve::FleetResult& r,
                                              const ObserveStats& observed) {
  // The control workload: every layer the other three exercise must be
  // idle here, so an optimisation of those layers predicts no change.
  Checks c{"fleet-steady", {}};
  c.require(r.fleet.cache_lookups == 0, "prefix cache was consulted");
  c.require(r.fabric_bytes == 0 && r.fleet.kv_migrations == 0 &&
                r.fleet.work_steals == 0,
            "KV moved between replicas");
  c.require(observed.events == 0, "an observer recorded events");
  c.require(r.scale_events.empty(), "the fleet scaled");
  return c.errors;
}

serve::FleetConfig bursty_autoscale_observed(std::uint64_t seed) {
  serve::ServingConfig base = replica_base(seed);
  // A short admission queue turns burst overload into shedding as well as
  // scale-up, so both admission control and the autoscaler fire.
  base.scheduler.queue_capacity = 8;
  base.traffic.process = serve::ArrivalProcess::kBursty;
  base.traffic.arrival_rate_per_s = 8.0;
  base.traffic.burst_factor = 4.0;  // x 0.25 on-fraction: silent off-phase
  base.traffic.num_requests = 10000;
  serve::FleetConfig fleet = serve::FleetConfig::homogeneous(
      base, 16, serve::BalancerPolicy::kJoinShortestQueue);
  fleet.autoscale.enabled = true;
  fleet.autoscale.policy = serve::ScalePolicy::kHybrid;
  fleet.autoscale.min_replicas = 1;
  fleet.autoscale.max_replicas = 16;
  return fleet;
}

std::vector<std::string> bursty_vacuity(const serve::FleetResult& r,
                                        const ObserveStats& observed) {
  Checks c{"bursty-autoscale-observed", {}};
  c.require(!r.scale_events.empty(), "no scale events");
  c.require(r.fleet.rejected > 0, "admission shed nothing");
  c.require(observed.events > 0, "the observer recorded no events");
  c.require(observed.export_bytes > 0, "the exports are empty");
  return c.errors;
}

serve::FleetConfig chat_prefix_cache(std::uint64_t seed) {
  serve::ServingConfig base = replica_base(seed);
  chunked_paged(base);
  base.prefix_cache = true;
  base.kv_swap = true;
  serve::ChatTrafficConfig chat;
  chat.conversations = 384;
  chat.turns = 8;
  chat.system_prompt_tokens = 96;
  chat.user_turn_tokens = 24;
  chat.reply_tokens = 48;
  base.traffic.scripted_shapes = serve::chat_turn_shapes(chat);
  base.traffic.arrival_rate_per_s = 1.5;
  // Clears the longest turn's chunked-prefill TTFT with queueing headroom
  // (the SLO examples/chat_cache judges goodput on).
  base.slo.ttft_ms = 2500.0;
  base.slo.token_ms = 400.0;
  return serve::FleetConfig::homogeneous(base, 4,
                                         serve::BalancerPolicy::kKvAware);
}

std::vector<std::string> chat_vacuity(const serve::FleetResult& r,
                                      const ObserveStats&) {
  // Pool pressure reclaims cached blocks. A 16-token GPT-2-medium block
  // costs far more to re-prefill than a host round trip, so every reclaim
  // swaps out rather than discards: swap-outs are this run's evictions.
  Checks c{"chat-prefix-cache", {}};
  c.require(r.fleet.cache_hit_rate > 0, "no prefix-cache hits");
  c.require(r.fleet.cache_swap_out_blocks > 0, "no cache blocks evicted");
  c.require(r.fleet.cache_swap_in_blocks > 0, "no swapped blocks restored");
  return c.errors;
}

serve::FleetConfig disagg_long_prompt(std::uint64_t seed) {
  serve::ServingConfig base = replica_base(seed);
  base.scheduler.policy = serve::BatchPolicy::kDecodePriority;
  base.traffic.mix = workload::Mix{"long-prompt-chatty",
                                   {{workload::make_scenario(32, 96), 0.9},
                                    {workload::make_scenario(768, 128), 0.1}}};
  base.traffic.arrival_rate_per_s = 3.0;
  base.traffic.num_requests = 60000;
  serve::FleetConfig fleet = serve::FleetConfig::homogeneous(
      base, 8, serve::BalancerPolicy::kJoinShortestQueue);
  fleet.roles.assign(4, serve::ReplicaRole::kPrefill);
  fleet.roles.resize(8, serve::ReplicaRole::kDecode);
  fleet.kv_link.bytes_per_cycle = 100e9 / base.arch.frequency_hz;
  return fleet;
}

std::vector<std::string> disagg_vacuity(const serve::FleetResult& r,
                                        const ObserveStats&) {
  Checks c{"disagg-long-prompt", {}};
  c.require(r.fleet.kv_migrations > 0, "no KV migrations");
  c.require(r.fabric_bytes > 0, "no fabric bytes");
  return c.errors;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fleet-steady", false, fleet_steady, fleet_steady_vacuity},
      {"bursty-autoscale-observed", true, bursty_autoscale_observed,
       bursty_vacuity},
      {"chat-prefix-cache", false, chat_prefix_cache, chat_vacuity},
      {"disagg-long-prompt", false, disagg_long_prompt, disagg_vacuity},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace looplynx::suite
