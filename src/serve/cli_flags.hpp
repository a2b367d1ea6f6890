// The serving command-line flags (--policy, --chunk-tokens, --preempt,
// --kv-block-tokens, --prefix-cache, --kv-swap, --replicas, --balancer,
// --roles, --kv-link-gbps, --autoscale and its --min-replicas /
// --max-replicas / --scale-interval-ms companions, --trace-out,
// --metrics-out), declared once in scheduler_flags() and read once by
// parse_scheduler_cli, so serve_load and continuous_batching cannot drift.
//
// Parsing is a mapping: flags -> SchedulerCliOptions -> fleet_config() ->
// FleetSim. The flag table checks value syntax (counts, switches, paths)
// when the Cli is built; this file adds only flag-presence rules ("X
// requires Y, or it would silently do nothing"); what the values mean is
// checked once, by FleetConfig::validate (serve/fleet.hpp), which
// parse_scheduler_cli runs before returning.
//
// Invariants the defaults encode:
//  - All defaults reproduce the legacy single-replica, whole-footprint,
//    unchunked run — a no-flag invocation stays byte-identical across PRs
//    (the CI determinism gate's baseline).
//  - paged() is the "does this run depart from legacy KV accounting"
//    predicate: CLI surfaces add paging/preemption columns only when it is
//    true, which is what keeps default sweep output byte-stable.
#pragma once

#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"

namespace looplynx::serve {

struct SchedulerCliOptions {
  BatchPolicy policy = BatchPolicy::kPrefillPriority;
  /// Per-iteration token budget (SchedulerConfig::max_tokens_per_iter).
  std::uint32_t chunk_tokens = 0;
  PreemptPolicy preempt = PreemptPolicy::kNone;
  /// KvBlockManager paging granularity (1 = token-granular legacy).
  std::uint32_t kv_block_tokens = 1;
  /// Fleet width: 1 = a lone replica (legacy output); >= 2 = identical
  /// replicas behind `balancer`. Mutually exclusive with --autoscale
  /// (which sizes the fleet itself).
  std::uint32_t replicas = 1;
  BalancerPolicy balancer = BalancerPolicy::kRoundRobin;
  /// Fleet autoscaling (--autoscale=queue|slo|hybrid plus
  /// --min-replicas/--max-replicas/--scale-interval-ms). enabled == false
  /// unless --autoscale was given.
  AutoscalerConfig autoscale;
  /// Content-addressed prefix caching (--prefix-cache; =off to spell the
  /// default explicitly). false means no cache object is ever constructed
  /// — byte-identical to a build without the feature — and CLI surfaces
  /// add hit-rate/saved-prefill columns only when it is true.
  bool prefix_cache = false;
  /// Swap-to-host eviction tier (--kv-swap; requires --prefix-cache).
  bool kv_swap = false;
  /// Disaggregated prefill/decode fleet (--roles=prefill,decode,...): one
  /// role per replica, comma-separated; the count must equal --replicas
  /// on a static fleet, and with --autoscale the list itself sizes the
  /// pool (the autoscaler scales a live prefix inside each role tier).
  /// Empty (the default) means a symmetric fleet — no ring fabric is ever
  /// constructed and output is byte-identical to a build without the
  /// feature.
  std::vector<ReplicaRole> roles;
  /// KV-migration link rate (--kv-link-gbps, GB/s decimal): prices each
  /// ring hop via hw::StreamLinkConfig. Only meaningful with --roles;
  /// defaults to 100 GB/s when roles are set, stays 0 otherwise.
  double kv_link_gbps = 0;
  /// Observability exports (serve/observe.hpp), legal with any replica /
  /// autoscale combination. Empty (the default) disables the observer
  /// entirely — the run's output stays byte-identical to an unobserved
  /// binary. --trace-out writes Chrome/Perfetto trace-event JSON,
  /// --metrics-out a Prometheus text exposition; both are keyed off
  /// simulated cycles only, so the files are byte-stable across re-runs.
  std::string trace_out;
  std::string metrics_out;

  /// True when the run departs from the legacy whole-footprint accounting
  /// — the CLI surfaces add paging/preemption columns and summary lines
  /// only then, so default sweeps stay byte-identical to older output.
  bool paged() const {
    return preempt != PreemptPolicy::kNone || kv_block_tokens != 1;
  }

  /// True when the run is a multi-replica fleet (fleet surfaces add
  /// balance columns only then, for the same byte-stability reason).
  bool fleet() const { return replicas > 1 || autoscale.enabled; }

  /// Replica pool size the surfaces should build: the autoscaler's pool
  /// width (--max-replicas, or the role list's length with --roles) on an
  /// autoscaled fleet, the fixed width otherwise.
  std::uint32_t fleet_width() const {
    return autoscale.enabled ? autoscale.max_replicas : replicas;
  }

  /// The autoscale bounds as the CLI surfaces print them: "min..max" on
  /// a symmetric fleet, "per-tier <floors>..pool" on a disaggregated one
  /// (one floor or the per-tier list; each tier's ceiling is its pool).
  std::string bounds_label() const;

  /// True when the run should attach an Observer and write exports.
  bool observed() const { return !trace_out.empty() || !metrics_out.empty(); }

  /// True when the run is a disaggregated prefill/decode fleet — CLI
  /// surfaces add migration columns and summary lines only then (same
  /// byte-stability rule as paged()).
  bool disaggregated() const { return !roles.empty(); }

  /// The run these flags describe: `base` with the policy, chunk budget,
  /// preemption, block size, cache and swap flags applied, replicated
  /// fleet_width() times behind `balancer`, with the autoscaler, roles
  /// and KV-link rate (converted at base's clock) set. Every CLI surface
  /// runs exactly this, whatever the width.
  FleetConfig fleet_config(const ServingConfig& base) const;
};

/// `own` followed by the declarations of the serving flags: the table a
/// binary that calls parse_scheduler_cli builds its Cli from.
std::vector<util::Flag> scheduler_flags(std::vector<util::Flag> own);

/// The --autoscale declaration (a queue|slo|hybrid scale policy) with the
/// given default and help line. A bare --autoscale selects hybrid, the
/// conservative composite policy.
util::Flag autoscale_flag(std::string fallback, std::string help);

/// Reads the serving flags of a Cli built from scheduler_flags().
/// Flag-presence rules checked here:
///  - an explicit --balancer requires --replicas >= 2 or --autoscale;
///  - --autoscale conflicts with an explicit --replicas, and
///    --min-replicas/--max-replicas/--scale-interval-ms require
///    --autoscale;
///  - --max-replicas (the symmetric pool width) conflicts with --roles
///    (the role list is the pool), and a --min-replicas comma list (one
///    floor per role tier) requires --roles;
///  - --kv-link-gbps requires --roles.
/// Then runs fleet_config(ServingConfig{}).validate(), so a flag whose
/// value is meaningless (a zero block size, --chunk-tokens > 0 without
/// --policy=chunked, --kv-swap without --prefix-cache, a role list that
/// does not match the width, min > max, a zero-rate link, ...) is still
/// rejected at parse time.
/// Throws std::invalid_argument with an actionable message on violation.
SchedulerCliOptions parse_scheduler_cli(const util::Cli& cli);

}  // namespace looplynx::serve
