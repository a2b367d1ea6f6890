#include "serve/cli_flags.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace looplynx::serve {

namespace {

/// The comma-separated items of a list flag (--roles, --min-replicas).
std::vector<std::string> split_commas(const std::string& spec) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = spec.find(',', start);
    items.push_back(spec.substr(start, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - start));
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

/// Throws std::invalid_argument with `message` unless `ok`.
void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

}  // namespace

std::vector<util::Flag> scheduler_flags(std::vector<util::Flag> own) {
  using enum util::FlagKind;
  own.insert(own.end(), {
      {"policy", kText, "prefill", "batch policy: prefill|decode|chunked"},
      {"chunk-tokens", kCount, "", "per-iteration token budget; requires "
       "--policy=chunked (default 64 under chunked, else 0)"},
      {"preempt", kText, "none", "none|recompute|cost-aware"},
      {"kv-block-tokens", kCount, "1", "KV paging granularity, >= 1"},
      {"prefix-cache", kSwitch, "off", "content-addressed prefix caching"},
      {"kv-swap", kSwitch, "off", "swap-to-host tier; needs --prefix-cache"},
      {"replicas", kCount, "1", "fleet width; conflicts with --autoscale"},
      {"balancer", kText, "rr", "rr|jsq|kv; needs a fleet of >= 2"},
      {"roles", kText, "", "roles R,R,... (general|prefill|decode), one per "
       "replica; needs a fleet, and sizes the pool under --autoscale"},
      {"kv-link-gbps", kNumber, "100", "KV link GB/s; needs --roles"},
      autoscale_flag("", "queue|slo|hybrid; conflicts with --replicas"),
      {"min-replicas", kText, "1", "autoscale floor N, or one per role tier "
       "N,N,...; needs --autoscale"},
      {"max-replicas", kCount, "4", "autoscale ceiling and pool width; "
       "needs --autoscale, conflicts with --roles"},
      {"scale-interval-ms", kNumber, "50", "control period; needs --autoscale"},
      {"trace-out", kPath, "", "Perfetto trace JSON of the run or last point"},
      {"metrics-out", kPath, "", "Prometheus text of the run or last point"}});
  return own;
}

util::Flag autoscale_flag(std::string fallback, std::string help) {
  return {"autoscale", util::FlagKind::kText, std::move(fallback),
          std::move(help) + " (bare = hybrid)", "", "hybrid"};
}

FleetConfig SchedulerCliOptions::fleet_config(
    const ServingConfig& base) const {
  ServingConfig replica = base;
  replica.scheduler.policy = policy;
  replica.scheduler.max_tokens_per_iter = chunk_tokens;
  replica.scheduler.preempt = preempt;
  replica.kv_block_tokens = kv_block_tokens;
  replica.prefix_cache = prefix_cache;
  replica.kv_swap = kv_swap;
  FleetConfig fleet =
      FleetConfig::homogeneous(replica, fleet_width(), balancer);
  fleet.autoscale = autoscale;
  fleet.roles = roles;
  // GB/s (decimal) -> bytes per fleet-clock cycle.
  fleet.kv_link.bytes_per_cycle =
      kv_link_gbps * 1e9 / base.arch.frequency_hz;
  return fleet;
}

std::string SchedulerCliOptions::bounds_label() const {
  std::string floors = autoscale.tier_min.empty()
                           ? std::to_string(autoscale.min_replicas)
                           : std::string();
  for (std::size_t t = 0; t < autoscale.tier_min.size(); ++t) {
    if (t) floors += ',';
    floors += std::to_string(autoscale.tier_min[t]);
  }
  return disaggregated() ? "per-tier " + floors + "..pool"
                         : floors + ".." +
                               std::to_string(autoscale.max_replicas);
}

SchedulerCliOptions parse_scheduler_cli(const util::Cli& cli) {
  SchedulerCliOptions opts;
  opts.policy = parse_batch_policy(cli.text("policy"));
  opts.chunk_tokens = cli.has("chunk-tokens")
                          ? cli.count("chunk-tokens")
                          : default_chunk_tokens(opts.policy);
  opts.preempt = parse_preempt_policy(cli.text("preempt"));
  opts.kv_block_tokens = cli.count("kv-block-tokens");
  opts.replicas = cli.count("replicas");

  opts.autoscale.enabled = cli.has("autoscale");
  if (opts.autoscale.enabled) {
    require(!cli.has("replicas"),
            "--autoscale conflicts with --replicas: the autoscaler sizes "
            "the fleet between --min-replicas and --max-replicas, so a "
            "fixed width contradicts it");
    opts.autoscale.policy = parse_scale_policy(cli.text("autoscale"));
    opts.autoscale.eval_interval_ms = cli.number("scale-interval-ms");
  }
  require(opts.autoscale.enabled ||
              !(cli.has("min-replicas") || cli.has("max-replicas") ||
                cli.has("scale-interval-ms")),
          "--min-replicas/--max-replicas/--scale-interval-ms require "
          "--autoscale: without the control loop they would silently do "
          "nothing");

  opts.prefix_cache = cli.on("prefix-cache");
  opts.kv_swap = cli.on("kv-swap");
  opts.trace_out = cli.text("trace-out");
  opts.metrics_out = cli.text("metrics-out");

  require(!cli.has("balancer") || opts.replicas >= 2 ||
              opts.autoscale.enabled,
          "--balancer requires --replicas >= 2 or --autoscale: routing "
          "over a single replica is a no-op, so the flag would silently "
          "do nothing");
  opts.balancer = parse_balancer_policy(cli.text("balancer"));

  if (cli.has("roles")) {
    for (const std::string& item : split_commas(cli.text("roles"))) {
      opts.roles.push_back(parse_replica_role(item));
    }
  }
  if (opts.autoscale.enabled) {
    // Resolved after --roles: a disaggregated fleet's pool is its role
    // list, and only a disaggregated fleet has more than one tier to give
    // a floor list to.
    require(!opts.disaggregated() || !cli.has("max-replicas"),
            "--max-replicas conflicts with --roles: the role list is the "
            "replica pool and each tier's ceiling is its member count");
    opts.autoscale.max_replicas =
        opts.disaggregated() ? static_cast<std::uint32_t>(opts.roles.size())
                             : cli.count("max-replicas");
    // Each entry follows the count syntax; a bare count is the floor of
    // every tier, a list names one floor per tier.
    std::vector<std::uint32_t> mins;
    for (const std::string& item : split_commas(cli.text("min-replicas"))) {
      mins.push_back(util::parse_count("min-replicas", item));
    }
    require(mins.size() == 1 || opts.disaggregated(),
            "--min-replicas comma lists are per-tier floors and require "
            "--roles (a symmetric fleet has one tier)");
    if (mins.size() == 1) {
      opts.autoscale.min_replicas = mins.front();
    } else {
      opts.autoscale.tier_min = mins;
    }
  }
  require(!cli.has("kv-link-gbps") || opts.disaggregated(),
          "--kv-link-gbps requires --roles: the KV-migration fabric only "
          "exists on a disaggregated fleet, so the flag would silently do "
          "nothing");
  if (opts.disaggregated()) opts.kv_link_gbps = cli.number("kv-link-gbps");
  // Everything a flag value means is checked once, by the fleet itself.
  opts.fleet_config(ServingConfig{}).validate();
  return opts;
}

}  // namespace looplynx::serve
