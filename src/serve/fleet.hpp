// Multi-deployment serving fleet: N replica deployments behind a
// load balancer, fed by one shared traffic stream.
//
// FleetSim is the horizontal scale axis on top of ServingSim's vertical
// one: it owns N independent replicas (each a full ServingConfig — its own
// scheduler, KV budget, even a different ArchConfig) on ONE shared
// sim::Engine, and a LoadBalancer that routes every arrival of a single
// TrafficGen stream to a replica the moment it lands. Replicas never share
// KV or pipeline state — in a symmetric fleet a request lives and dies on
// the replica it was routed to, so each replica's scheduling, paging and
// preemption behavior is exactly a lone replica's. Disaggregated fleets
// (FleetConfig::roles) relax exactly one thing: a finished prompt's KV can
// move, whole, from a prefill replica to a decode replica over a timed
// net::RingFabric (and an idle replica can steal queued work the same
// way) — the pools themselves are still never shared.
//
// Invariants:
//  - Determinism: a FleetConfig fully determines FleetResult. All
//    randomness flows through the one seeded TrafficGen, the engine
//    resolves same-cycle events in scheduling order, and every balancer
//    tie-break is by lowest replica index — byte-identical sweeps, same as
//    the single-replica engine.
//  - ServingSim IS a 1-replica fleet: it runs FleetSim on
//    FleetConfig::homogeneous(config, 1), so the two cannot drift.
//  - All replicas must share one clock frequency (arch.frequency_hz): the
//    engine has a single cycle-granular clock. Heterogeneity means node
//    counts, KV budgets and scheduler knobs — not clock domains.
//
// Architecture notes: DESIGN.md §5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/step_cost.hpp"
#include "hw/link.hpp"
#include "serve/autoscaler.hpp"
#include "serve/metrics.hpp"
#include "serve/serving_sim.hpp"
#include "util/table.hpp"

namespace looplynx::serve {

/// Replica specialization in a disaggregated fleet (FleetConfig::roles).
/// General replicas behave exactly like the symmetric fleets of PR 4-8.
enum class ReplicaRole : std::uint8_t {
  /// Takes fresh arrivals and runs both phases to completion (legacy).
  kGeneral,
  /// Takes fresh arrivals; once a prompt's last chunk has run, its KV
  /// block list is shipped to the least-loaded decode replica over the
  /// fleet's net::RingFabric and decoding continues there.
  kPrefill,
  /// Never routed fresh arrivals: serves migrated-in decode phases (and
  /// whatever it steals from a whale-stuck neighbor when idle).
  kDecode,
};

/// CLI-facing role names ("general" | "prefill" | "decode"), shared by the
/// bench and example surfaces. Throws std::invalid_argument on unknown.
ReplicaRole parse_replica_role(const std::string& name);
const char* replica_role_name(ReplicaRole role);

/// How the fleet balancer picks a replica for each arrival.
enum class BalancerPolicy : std::uint8_t {
  /// Route arrival i to replica i mod N, blind to load. The baseline every
  /// smarter policy is measured against; degrades on skewed mixes, where a
  /// run of heavy requests can pile onto one replica by arrival parity.
  kRoundRobin,
  /// Fewest outstanding requests (queued + running, counted from routing
  /// so same-cycle bursts are visible); ties go to the lowest replica
  /// index. The classic supermarket policy: adapts to skew by steering
  /// around the replica stuck with a heavy request.
  kJoinShortestQueue,
  /// Most free KV-cache tokens (free blocks x block size — comparable
  /// across replicas with different paging granularities and budgets),
  /// then fewest outstanding, then lowest index. Builds on the paged
  /// KvBlockManager's occupancy stats: KV is the admission-gating
  /// resource, so free KV predicts which replica can start work soonest —
  /// but blocks are only allocated at admission, so until queues
  /// differentiate the pools this behaves like kJoinShortestQueue.
  kKvAware,
};

/// CLI-facing balancer names ("rr" | "jsq" | "kv"), shared by the bench and
/// example surfaces. Throws std::invalid_argument on an unknown name.
BalancerPolicy parse_balancer_policy(const std::string& name);
const char* balancer_policy_name(BalancerPolicy policy);

/// Routing-decision engine. The pure pick() core is separated from the
/// simulation so its tie-break rules — the fleet's determinism contract —
/// are unit-testable without spinning up replicas.
class LoadBalancer {
 public:
  explicit LoadBalancer(BalancerPolicy policy) : policy_(policy) {}

  /// One replica's load snapshot at a routing instant.
  struct ReplicaLoad {
    std::uint32_t outstanding = 0;     // routed - finished - rejected
    std::uint64_t free_kv_tokens = 0;  // free blocks x block size
    /// False for a replica the autoscaler has deactivated (draining or
    /// parked): the balancer must not route new arrivals to it. Static
    /// fleets leave every replica active.
    bool active = true;
  };

  /// Picks the replica index for the next arrival, considering only
  /// active replicas. Deterministic: every tie resolves to the lowest
  /// *active* index (after the policy's secondary keys); round-robin
  /// cycles over the active subset in index order. `loads` must be
  /// non-empty, its order is the replica order, and at least one entry
  /// must be active (the autoscaler's min_replicas >= 1 guarantees it).
  /// With every replica active this is byte-identical to the pre-masking
  /// balancer — what keeps static-fleet sweeps byte-stable.
  std::uint32_t pick(const std::vector<ReplicaLoad>& loads);

  /// Same pick with the active count supplied by the caller — the fleet
  /// keeps it incrementally (the live prefix size), so the per-arrival
  /// counting scan disappears from the routing hot path.
  std::uint32_t pick(const std::vector<ReplicaLoad>& loads,
                     std::uint32_t n_active);

  BalancerPolicy policy() const { return policy_; }

 private:
  BalancerPolicy policy_;
  std::uint32_t round_robin_next_ = 0;
};

struct FleetConfig {
  /// One ServingConfig per replica (>= 1). Per-replica `traffic` members
  /// are ignored — the fleet has exactly one arrival stream, `traffic`
  /// below. Replicas may differ in everything else, but must share one
  /// arch.frequency_hz (single engine clock).
  std::vector<ServingConfig> replicas;
  /// The shared arrival stream the balancer splits across replicas.
  TrafficConfig traffic;
  BalancerPolicy balancer = BalancerPolicy::kRoundRobin;
  /// Fleet-level autoscaling (serve/autoscaler.hpp). Disabled by default:
  /// every replica is live for the whole run and output is byte-identical
  /// to the static fleet engine. When enabled on a symmetric fleet,
  /// `replicas` must hold exactly autoscale.max_replicas configs and the
  /// run starts with the first autoscale.min_replicas of them live. When
  /// enabled together with `roles`, one controller runs per tier
  /// (replicas grouped by role) and the per-tier `tier_min`/`tier_max`
  /// bounds rule — each tier starts at its own minimum, live as a prefix
  /// of that tier's members in fleet-index order. DESIGN.md §11.
  AutoscalerConfig autoscale;

  /// Disaggregated prefill/decode roles, one per replica. Empty (the
  /// default) keeps the fleet symmetric and constructs NO fabric — output
  /// stays byte-identical to a role-less build. Non-empty requires
  /// size() == replicas.size(), at least one routable (prefill/general)
  /// and one decode replica. Combines with `autoscale`: each role class
  /// is an independently scaled tier (DESIGN.md §10-§11).
  std::vector<ReplicaRole> roles;
  /// Per-link pricing of the KV-migration ring (one simplex link per
  /// replica, replica i -> i+1 mod N). Only read when `roles` is set.
  hw::StreamLinkConfig kv_link;

  bool disaggregated() const { return !roles.empty(); }

  /// N identical replicas of `base`; the fleet traffic is base.traffic.
  static FleetConfig homogeneous(
      const ServingConfig& base, std::uint32_t n,
      BalancerPolicy balancer = BalancerPolicy::kRoundRobin);
};

/// What one fleet run produced: per-replica FleetMetrics plus the pooled
/// fleet-level rollup and the cross-replica balance statistics the
/// balancer policies are judged on.
struct FleetResult {
  /// Per-replica metrics, in replica order. `offered` is the requests
  /// routed to that replica; latency percentiles are over its own
  /// completions.
  std::vector<FleetMetrics> replicas;

  /// Fleet-level rollup. Counts/token totals/iterations sum across
  /// replicas; rates use the shared makespan; latency percentiles pool
  /// every replica's per-request samples; `peak_in_flight` is the true
  /// fleet-wide concurrent peak; `busy_fraction` averages pipeline
  /// utilization over all replicas; `peak_queue_depth` and
  /// `kv_peak_occupancy` report the worst single replica; KV capacity and
  /// preemption counters sum. `preempt`/`kv_block_tokens` echo replica 0
  /// (display only — replicas may differ). `requests` pools every
  /// replica's records sorted by id (== fleet-wide injection order), each
  /// carrying its `replica` index.
  FleetMetrics fleet;

  /// Arrivals the balancer routed to each replica (sums to fleet.offered).
  std::vector<std::uint64_t> routed;
  /// max(routed) / mean(routed) over the *routing-eligible* replicas: 1.0
  /// is a perfectly even split. On a disaggregated fleet decode replicas
  /// receive zero fresh arrivals by design, so they are excluded from
  /// both the max and the mean — including them would read a healthy
  /// role split as pathological imbalance (the PR 9 bug this fixes). On
  /// a symmetric fleet every replica is eligible and the metric is
  /// unchanged bit for bit. The imbalance a blind policy accumulates is
  /// the headroom JSQ/KV-aware routing exists to reclaim.
  double load_imbalance = 0;
  /// max - min of per-replica p99 TTFT over replicas that completed work —
  /// the tail-latency spread a skewed routing inflicts.
  double ttft_p99_spread_ms = 0;

  // ---- Autoscaling (FleetConfig::autoscale; defaults describe a static
  // fleet so disabled runs keep byte-identical tables) ----
  /// True when the run was autoscaled; gates the extra table rows.
  bool autoscaled = false;
  /// Every replica-set change in fleet-clock order (empty when static).
  std::vector<ScaleEvent> scale_events;
  std::uint32_t min_live_replicas = 0;   // fewest live at any instant
  std::uint32_t peak_live_replicas = 0;  // most live at any instant
  /// Time-weighted mean of the live-replica count over the makespan.
  double mean_live_replicas = 0;
  /// The fleet's cost metric: cycles during which each replica was
  /// *occupied* — live (routable), or deactivated but still draining
  /// requests routed to it before the scale-down — summed over replicas.
  /// A static fleet consumes exactly replicas x makespan; the autoscaler
  /// exists to cut this while holding the SLO (pinned in
  /// examples/autoscale_serving.cpp).
  std::uint64_t replica_cycles = 0;
  double replica_seconds = 0;  // replica_cycles / frequency

  /// Per-tier rollup of one role class (disaggregated fleets only — the
  /// `tiers` vector below stays empty on symmetric runs so their tables
  /// and digests cannot move). Tier order is the distinct roles of
  /// FleetConfig::roles in first-appearance order; `members` are fleet
  /// indices in ascending order, and the tier's live set is always a
  /// prefix of them.
  struct TierStats {
    ReplicaRole role = ReplicaRole::kGeneral;
    std::vector<std::uint32_t> members;    // fleet indices, ascending
    std::uint32_t min_live = 0;            // fewest live at any instant
    std::uint32_t peak_live = 0;           // most live at any instant
    /// Time-weighted mean of the tier's live count over the makespan.
    double mean_live = 0;
    /// Occupied cycles summed over the tier's members (live or draining).
    std::uint64_t replica_cycles = 0;
    /// max - min of per-replica p99 TTFT over the tier's members that
    /// completed work — the spread WITHIN one role class. The fleet-wide
    /// ttft_p99_spread_ms mixes prefill TTFTs with migrated-decode ones
    /// and mostly measures the role split itself; this one measures
    /// routing skew where routing actually happens.
    double ttft_p99_spread_ms = 0;
  };
  /// One entry per role class on disaggregated runs; empty otherwise.
  std::vector<TierStats> tiers;

  // ---- Disaggregation (FleetConfig::roles; defaults describe a
  // symmetric fleet so role-less runs keep byte-identical tables) ----
  /// True when the fleet ran with roles; gates the extra table column and
  /// the CLI surfaces' migration prose.
  bool disaggregated = false;
  /// The roles the fleet ran with (empty when symmetric), replica order.
  std::vector<ReplicaRole> roles;
  /// Every byte the net::RingFabric's links carried (bytes x hops —
  /// multi-hop paths serialize on every link they cross). Equals the sum
  /// of per-replica kv_migrate_wire_bytes + steal_wire_bytes.
  std::uint64_t fabric_bytes = 0;

  /// Per-replica + fleet summary table for examples and reports. The
  /// autoscale fields are reported as prose by the CLI surfaces (gated on
  /// `autoscaled`), so static tables stay unchanged byte for byte.
  util::Table to_table(const std::string& title) const;
};

class FleetSim {
 public:
  /// Builds one step-cost model per distinct (arch, model, probe stride)
  /// among the replicas — a homogeneous fleet probes the timed system once.
  explicit FleetSim(const FleetConfig& config);

  /// Reuses an existing cost model for every replica — sweep harnesses
  /// over homogeneous fleets should share one across points. All replicas
  /// must then really be priced by it (same arch + model), which this
  /// constructor trusts the caller on.
  FleetSim(const FleetConfig& config, const core::StepCostModel& costs);

  const FleetConfig& config() const { return config_; }

  /// Simulates the whole fleet to completion and returns its results.
  FleetResult run() const;

  /// Same run with an observer attached (serve/observe.hpp): every
  /// replica's lifecycle events and cycle-accounting spans — plus the
  /// autoscaler's scale/drain decisions — are recorded into it, and the
  /// observer is finalized (per-replica tiling asserted, exports unlocked)
  /// before returning. `observer` may be null (identical to run()); when
  /// non-null it must be freshly constructed for the fleet width at the
  /// fleet clock. Observation is pure bookkeeping: the returned result is
  /// identical to an unobserved run's.
  FleetResult run(Observer* observer) const;

 private:
  void validate();

  FleetConfig config_;
  std::vector<core::StepCostModel> costs_;  // one per replica
};

}  // namespace looplynx::serve
