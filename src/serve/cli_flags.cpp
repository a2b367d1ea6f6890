#include "serve/cli_flags.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace looplynx::serve {

namespace {

/// Splits a --min-replicas value into per-entry counts: a bare count is a
/// one-entry list (the floor of every tier), a comma list names one floor
/// per tier. Entries follow the count-flag syntax (util::parse_count);
/// their meaning is FleetConfig::validate's.
std::vector<std::uint32_t> parse_bounds_list(const std::string& flag,
                                             const std::string& spec) {
  std::vector<std::uint32_t> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    out.push_back(util::parse_count(
        flag, spec.substr(start, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

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

SchedulerCliOptions parse_scheduler_cli(const util::Cli& cli,
                                        const std::string& default_policy) {
  SchedulerCliOptions opts;
  opts.policy = parse_batch_policy(cli.get_or("policy", default_policy));

  opts.chunk_tokens = cli.get_count_or("chunk-tokens",
                                       default_chunk_tokens(opts.policy));

  opts.preempt = parse_preempt_policy(cli.get_or("preempt", "none"));
  opts.kv_block_tokens = cli.get_count_or("kv-block-tokens", 1);
  opts.replicas = cli.get_count_or("replicas", 1);

  if (cli.has("autoscale")) {
    if (cli.has("replicas")) {
      throw std::invalid_argument(
          "--autoscale conflicts with --replicas: the autoscaler sizes "
          "the fleet between --min-replicas and --max-replicas, so a "
          "fixed width contradicts it");
    }
    opts.autoscale.enabled = true;
    // Bare --autoscale selects the conservative composite policy.
    const std::string policy = cli.get_or("autoscale", "");
    opts.autoscale.policy =
        policy.empty() ? ScalePolicy::kHybrid : parse_scale_policy(policy);
    opts.autoscale.eval_interval_ms =
        cli.get_double_or("scale-interval-ms", 50.0);
  } else if (cli.has("min-replicas") || cli.has("max-replicas") ||
             cli.has("scale-interval-ms")) {
    throw std::invalid_argument(
        "--min-replicas/--max-replicas/--scale-interval-ms require "
        "--autoscale: without the control loop they would silently do "
        "nothing");
  }

  // Bare --prefix-cache / --kv-swap mean "on"; =off (or =0/=false/=no)
  // spells the default explicitly so CI can pin `--prefix-cache=off` output
  // byte-identical to a no-flag run.
  if (cli.has("prefix-cache")) {
    opts.prefix_cache = cli.get_bool_or("prefix-cache", true);
  }
  if (cli.has("kv-swap")) {
    opts.kv_swap = cli.get_bool_or("kv-swap", true);
  }

  for (const char* flag : {"trace-out", "metrics-out"}) {
    if (!cli.has(flag)) continue;
    const std::string path = cli.get_or(flag, "");
    if (path.empty()) {
      throw std::invalid_argument(
          std::string("--") + flag +
          " needs a file path (--" + flag + "=<path>)");
    }
    (flag[0] == 't' ? opts.trace_out : opts.metrics_out) = path;
  }

  if (const auto balancer = cli.get("balancer")) {
    if (opts.replicas < 2 && !opts.autoscale.enabled) {
      throw std::invalid_argument(
          "--balancer requires --replicas >= 2 or --autoscale: routing "
          "over a single replica is a no-op, so the flag would silently "
          "do nothing");
    }
    opts.balancer = parse_balancer_policy(*balancer);
  }

  if (cli.has("roles")) {
    const std::string spec = cli.get_or("roles", "");
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::string item =
          spec.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      opts.roles.push_back(parse_replica_role(item));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  if (opts.autoscale.enabled) {
    // Resolved after --roles: a disaggregated fleet's pool is its role
    // list, and only a disaggregated fleet has more than one tier to give
    // a floor list to.
    if (!opts.disaggregated()) {
      opts.autoscale.max_replicas = cli.get_count_or("max-replicas", 4);
    } else if (cli.has("max-replicas")) {
      throw std::invalid_argument(
          "--max-replicas conflicts with --roles: the role list is the "
          "replica pool and each tier's ceiling is its member count");
    } else {
      opts.autoscale.max_replicas =
          static_cast<std::uint32_t>(opts.roles.size());
    }
    const std::vector<std::uint32_t> mins =
        parse_bounds_list("min-replicas", cli.get_or("min-replicas", "1"));
    if (mins.size() == 1) {
      opts.autoscale.min_replicas = mins.front();
    } else if (opts.disaggregated()) {
      opts.autoscale.tier_min = mins;
    } else {
      throw std::invalid_argument(
          "--min-replicas comma lists are per-tier floors and require "
          "--roles (a symmetric fleet has one tier)");
    }
  }
  if (cli.has("kv-link-gbps") && !opts.disaggregated()) {
    throw std::invalid_argument(
        "--kv-link-gbps requires --roles: the KV-migration fabric only "
        "exists on a disaggregated fleet, so the flag would silently do "
        "nothing");
  }
  if (opts.disaggregated()) {
    opts.kv_link_gbps = cli.get_double_or("kv-link-gbps", 100.0);
  }
  // Everything a flag value means is checked once, by the fleet itself.
  opts.fleet_config(ServingConfig{}).validate();
  return opts;
}

}  // namespace looplynx::serve
