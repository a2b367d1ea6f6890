#include "serve/fleet.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/fabric.hpp"
#include "serve/observe.hpp"
#include "serve/replica.hpp"
#include "serve/traffic.hpp"
#include "util/stats.hpp"

namespace looplynx::serve {

BalancerPolicy parse_balancer_policy(const std::string& name) {
  if (name == "rr") return BalancerPolicy::kRoundRobin;
  if (name == "jsq") return BalancerPolicy::kJoinShortestQueue;
  if (name == "kv") return BalancerPolicy::kKvAware;
  throw std::invalid_argument("unknown balancer policy \"" + name +
                              "\" (expected rr|jsq|kv)");
}

const char* balancer_policy_name(BalancerPolicy policy) {
  switch (policy) {
    case BalancerPolicy::kRoundRobin:
      return "round-robin";
    case BalancerPolicy::kJoinShortestQueue:
      return "join-shortest-queue";
    case BalancerPolicy::kKvAware:
      return "kv-aware";
  }
  return "unknown";
}

ReplicaRole parse_replica_role(const std::string& name) {
  if (name == "general") return ReplicaRole::kGeneral;
  if (name == "prefill") return ReplicaRole::kPrefill;
  if (name == "decode") return ReplicaRole::kDecode;
  throw std::invalid_argument("unknown replica role \"" + name +
                              "\" (expected general|prefill|decode)");
}

const char* replica_role_name(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kGeneral:
      return "general";
    case ReplicaRole::kPrefill:
      return "prefill";
    case ReplicaRole::kDecode:
      return "decode";
  }
  return "unknown";
}

namespace {

/// One role class of a fleet: the tier the per-tier autoscaler controls.
/// Tier order is first appearance in the roles list; members are fleet
/// indices in ascending order (the tier's live set is always a prefix of
/// them). A symmetric fleet is exactly one kGeneral tier holding every
/// replica — which is how the tier machinery reduces to the legacy
/// whole-fleet live prefix bit for bit.
struct TierSpec {
  ReplicaRole role = ReplicaRole::kGeneral;
  std::vector<std::uint32_t> members;
};

std::vector<TierSpec> tier_spec(const std::vector<ReplicaRole>& roles,
                                std::size_t n) {
  std::vector<TierSpec> tiers;
  if (roles.empty()) {
    tiers.emplace_back();
    tiers.front().members.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tiers.front().members[i] = static_cast<std::uint32_t>(i);
    }
    return tiers;
  }
  for (std::size_t i = 0; i < roles.size(); ++i) {
    std::size_t t = 0;
    while (t < tiers.size() && tiers[t].role != roles[i]) ++t;
    if (t == tiers.size()) {
      tiers.emplace_back();
      tiers.back().role = roles[i];
    }
    tiers[t].members.push_back(static_cast<std::uint32_t>(i));
  }
  return tiers;
}

/// The tier's effective live bounds: the per-tier lists when given, else
/// min 1 / max <tier pool> on disaggregated fleets, else the legacy
/// scalars (symmetric single tier).
std::pair<std::uint32_t, std::uint32_t> tier_bounds(
    const AutoscalerConfig& as, const std::vector<TierSpec>& tiers,
    std::size_t t, bool disaggregated) {
  const auto pool = static_cast<std::uint32_t>(tiers[t].members.size());
  const std::uint32_t lo =
      as.tier_min.empty() ? (disaggregated ? 1u : as.min_replicas)
                          : as.tier_min[t];
  const std::uint32_t hi =
      as.tier_max.empty() ? (disaggregated ? pool : as.max_replicas)
                          : as.tier_max[t];
  return {lo, hi};
}

}  // namespace

std::uint32_t LoadBalancer::pick(const std::vector<ReplicaLoad>& loads) {
  std::uint32_t n_active = 0;
  for (const ReplicaLoad& l : loads) n_active += l.active ? 1 : 0;
  return pick(loads, n_active);
}

std::uint32_t LoadBalancer::pick(const std::vector<ReplicaLoad>& loads,
                                 std::uint32_t n_active) {
  const auto n = static_cast<std::uint32_t>(loads.size());
  if (n_active == 0) return 0;  // unreachable: autoscale min_replicas >= 1
  switch (policy_) {
    case BalancerPolicy::kRoundRobin: {
      // The counter advances once per pick regardless of the mask, and
      // selects the k-th *active* replica in index order: with every
      // replica active this is exactly the legacy `counter % n`, and under
      // a mask the cycle walks the live prefix deterministically.
      std::uint32_t k = round_robin_next_ % n_active;
      ++round_robin_next_;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!loads[i].active) continue;
        if (k == 0) return i;
        --k;
      }
      return 0;  // unreachable
    }
    case BalancerPolicy::kJoinShortestQueue: {
      std::uint32_t best = n;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!loads[i].active) continue;
        // Strict < keeps ties on the lowest active index.
        if (best == n || loads[i].outstanding < loads[best].outstanding) {
          best = i;
        }
      }
      return best;
    }
    case BalancerPolicy::kKvAware: {
      std::uint32_t best = n;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!loads[i].active) continue;
        if (best == n) {
          best = i;
          continue;
        }
        if (loads[i].free_kv_tokens != loads[best].free_kv_tokens) {
          if (loads[i].free_kv_tokens > loads[best].free_kv_tokens) best = i;
          continue;
        }
        // Equal pools (e.g. a same-cycle burst before any admission):
        // fall back to join-shortest-queue, then the lowest active index.
        if (loads[i].outstanding < loads[best].outstanding) best = i;
      }
      return best;
    }
  }
  return 0;
}

FleetConfig FleetConfig::homogeneous(const ServingConfig& base,
                                     std::uint32_t n,
                                     BalancerPolicy balancer) {
  FleetConfig cfg;
  cfg.traffic = base.traffic;
  cfg.balancer = balancer;
  // Per-replica traffic members are ignored (the fleet has one stream);
  // blank them instead of duplicating e.g. a large explicit_arrivals
  // schedule N times.
  ServingConfig replica = base;
  replica.traffic = TrafficConfig{};
  cfg.replicas.assign(n, replica);
  return cfg;
}

void FleetSim::validate() {
  if (config_.replicas.empty()) {
    throw std::invalid_argument("fleet needs at least one replica");
  }
  const double frequency = config_.replicas.front().arch.frequency_hz;
  for (std::size_t i = 0; i < config_.replicas.size(); ++i) {
    const ServingConfig& r = config_.replicas[i];
    const std::string where = " (replica " + std::to_string(i) + ")";
    if (r.scheduler.max_batch == 0) {
      throw std::invalid_argument("scheduler max_batch must be >= 1" + where);
    }
    if (r.scheduler.max_in_flight == 0) {
      throw std::invalid_argument("scheduler max_in_flight must be >= 1" +
                                  where);
    }
    if (r.kv_block_tokens == 0) {
      throw std::invalid_argument(
          "kv_block_tokens must be >= 1 (1 = token-granular)" + where);
    }
    if (r.kv_swap && !r.prefix_cache) {
      throw std::invalid_argument(
          "kv_swap requires prefix_cache (swap is an eviction tier of the "
          "prefix cache; without the cache there is nothing to swap)" +
          where);
    }
    if (r.arch.frequency_hz != frequency) {
      // The engine advances one cycle-granular clock; replicas in another
      // clock domain would need cycle-rate conversion the fleet does not
      // model. Vary node counts / budgets / schedulers instead.
      throw std::invalid_argument(
          "fleet replicas must share one arch.frequency_hz" + where);
    }
  }
  if (!config_.traffic.explicit_arrivals.empty()) {
    config_.traffic.num_requests = static_cast<std::uint32_t>(
        config_.traffic.explicit_arrivals.size());
  }
  const AutoscalerConfig& as = config_.autoscale;
  if (as.enabled) {
    if (!(as.eval_interval_ms > 0)) {
      throw std::invalid_argument(
          "autoscale eval_interval_ms must be > 0 (the control loop runs "
          "on the fleet clock)");
    }
    if (!(as.ttft_window_ms > 0)) {
      throw std::invalid_argument("autoscale ttft_window_ms must be > 0");
    }
    if (as.queue_low >= as.queue_high) {
      throw std::invalid_argument(
          "autoscale queue_low must be below queue_high (hysteresis band)");
    }
    if (as.up_evals == 0 || as.down_evals == 0) {
      throw std::invalid_argument(
          "autoscale up_evals/down_evals must be >= 1");
    }
  }
  if (config_.disaggregated()) {
    if (config_.roles.size() != config_.replicas.size()) {
      throw std::invalid_argument(
          "roles must name every replica (" +
          std::to_string(config_.roles.size()) + " roles for " +
          std::to_string(config_.replicas.size()) + " replicas)");
    }
    if (config_.replicas.size() < 2) {
      throw std::invalid_argument(
          "disaggregation needs at least 2 replicas (KV migration ships "
          "blocks between nodes; a 1-node fleet has nowhere to ship)");
    }
    std::size_t decode = 0;
    for (ReplicaRole r : config_.roles) {
      decode += r == ReplicaRole::kDecode ? 1 : 0;
    }
    if (decode == 0) {
      throw std::invalid_argument(
          "roles need at least one decode replica (prefill replicas "
          "migrate every finished prompt; with no decode target nothing "
          "would ever decode)");
    }
    if (decode == config_.roles.size()) {
      throw std::invalid_argument(
          "roles need at least one non-decode replica (decode replicas "
          "receive no fresh arrivals; an all-decode fleet would serve "
          "nothing)");
    }
    if (!(config_.kv_link.bytes_per_cycle > 0)) {
      throw std::invalid_argument(
          "disaggregation needs kv_link.bytes_per_cycle > 0 (KV migration "
          "is priced on the ring fabric; a zero-rate link never delivers)");
    }
  }
  if (as.enabled) {
    // Per-tier live bounds, checked after the role shape so tier pools
    // are well-defined. A symmetric fleet is one tier bounded by the
    // legacy scalars, so these checks reduce to the PR 5 ones exactly.
    const std::vector<TierSpec> tiers =
        tier_spec(config_.roles, config_.replicas.size());
    for (const auto* list : {&as.tier_min, &as.tier_max}) {
      if (!list->empty() && list->size() != tiers.size()) {
        throw std::invalid_argument(
            "autoscale per-tier bounds must name every tier: got " +
            std::to_string(list->size()) + " entries for " +
            std::to_string(tiers.size()) +
            " tiers (distinct roles in first-appearance order)");
      }
    }
    // Normalize: a disaggregated autoscaled fleet always runs on explicit
    // per-tier lists (defaults min 1 / max <tier pool>), so the run-time
    // machinery never has to guess which scalars to fall back on.
    if (config_.disaggregated()) {
      AutoscalerConfig& mut = config_.autoscale;
      if (mut.tier_min.empty()) mut.tier_min.assign(tiers.size(), 1);
      if (mut.tier_max.empty()) {
        mut.tier_max.resize(tiers.size());
        for (std::size_t t = 0; t < tiers.size(); ++t) {
          mut.tier_max[t] =
              static_cast<std::uint32_t>(tiers[t].members.size());
        }
      }
    }
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      const auto [lo, hi] =
          tier_bounds(as, tiers, t, config_.disaggregated());
      const std::string where =
          config_.disaggregated()
              ? std::string(" (tier ") + std::to_string(t) + ", " +
                    replica_role_name(tiers[t].role) + ")"
              : std::string();
      if (lo < 1) {
        throw std::invalid_argument("autoscale min_replicas must be >= 1" +
                                    where);
      }
      if (lo > hi) {
        throw std::invalid_argument(
            "autoscale min_replicas exceeds max_replicas" + where);
      }
      if (hi != tiers[t].members.size()) {
        // The replica pool is the scale ceiling — per tier, its role's
        // member count: a silent mismatch would leave configured replicas
        // unreachable (or index out of range).
        throw std::invalid_argument(
            "autoscale max_replicas must equal the replica pool size" +
            where);
      }
    }
  }
}

FleetSim::FleetSim(const FleetConfig& config) : config_(config) {
  validate();
  costs_.reserve(config_.replicas.size());
  for (std::size_t i = 0; i < config_.replicas.size(); ++i) {
    const ServingConfig& r = config_.replicas[i];
    const auto same = [&](const ServingConfig& other) {
      return other.arch == r.arch && other.model == r.model &&
             other.cost_probe_stride == r.cost_probe_stride;
    };
    std::size_t found = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (same(config_.replicas[j])) {
        found = j;
        break;
      }
    }
    if (found < i) {
      costs_.push_back(costs_[found]);  // share the probe
    } else {
      costs_.emplace_back(r.arch, r.model, r.cost_probe_stride);
    }
  }
}

FleetSim::FleetSim(const FleetConfig& config,
                   const core::StepCostModel& costs)
    : config_(config) {
  validate();
  costs_.assign(config_.replicas.size(), costs);
}

namespace {

/// Everything one fleet run owns. Engine first: coroutines of replicas
/// that drained early park on their work signals and are destroyed
/// un-resumed with the engine, after everything they reference.
struct FleetRun {
  /// One role class under per-tier autoscaling control: its members (fleet
  /// indices, ascending — the live set is always their prefix), the live
  /// count, and the (cycle, live) step timeline the occupancy accounting
  /// replays. A symmetric fleet builds exactly one kGeneral tier holding
  /// every replica, which reduces all tier machinery to the legacy
  /// whole-fleet live prefix bit for bit.
  struct Tier {
    ReplicaRole role = ReplicaRole::kGeneral;
    std::vector<std::uint32_t> members;
    std::uint32_t live = 0;
    std::vector<std::pair<sim::Cycles, std::uint32_t>> timeline;
  };

  FleetRun(const FleetConfig& cfg_,
           const std::vector<core::StepCostModel>& costs)
      : cfg(cfg_),
        traffic(cfg_.traffic, cfg_.replicas.front().arch.frequency_hz),
        balancer(cfg_.balancer) {
    shared.target = cfg_.traffic.num_requests;
    // The window hook stays null on static runs: the scheduler then never
    // pushes TTFT samples (they would have no reader).
    if (cfg_.autoscale.enabled) shared.ttft_window = &ttft_window;
    replicas.reserve(cfg_.replicas.size());
    for (std::size_t i = 0; i < cfg_.replicas.size(); ++i) {
      replicas.push_back(std::make_unique<detail::Replica>(
          engine, cfg_.replicas[i], costs[i], shared,
          static_cast<std::uint32_t>(i)));
    }
    // Tier setup: each role class starts at its own live minimum (the
    // whole pool when autoscaling is off) and every member outside the
    // tier's live prefix starts deactivated.
    const std::vector<TierSpec> spec =
        tier_spec(cfg_.roles, cfg_.replicas.size());
    tiers.reserve(spec.size());
    std::uint32_t total_live = 0;
    for (std::size_t t = 0; t < spec.size(); ++t) {
      Tier tier;
      tier.role = spec[t].role;
      tier.members = spec[t].members;
      tier.live = cfg_.autoscale.enabled
                      ? tier_bounds(cfg_.autoscale, spec, t,
                                    cfg_.disaggregated())
                            .first
                      : static_cast<std::uint32_t>(tier.members.size());
      for (std::size_t p = tier.live; p < tier.members.size(); ++p) {
        replicas[tier.members[p]]->live = false;
      }
      tier.timeline.emplace_back(0, tier.live);
      total_live += tier.live;
      tiers.push_back(std::move(tier));
    }
    shared.live_replicas = total_live;
    // Disaggregation plumbing is off = absent: with roles unset neither
    // the fabric nor the shared directory exists and every replica keeps
    // its null `disagg`, so no migration branch can fire and the event
    // sequence stays byte-identical to a symmetric fleet.
    if (cfg_.disaggregated()) {
      fabric = std::make_unique<net::RingFabric>(
          engine, cfg_.replicas.size(), cfg_.kv_link);
      disagg = std::make_unique<detail::DisaggShared>();
      disagg->fabric = fabric.get();
      disagg->replicas.reserve(replicas.size());
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        disagg->replicas.push_back(replicas[i].get());
        replicas[i]->role = cfg_.roles[i];
        replicas[i]->disagg = disagg.get();
      }
    }
  }

  const FleetConfig& cfg;
  sim::Engine engine;
  detail::FleetShared shared;
  std::vector<std::unique_ptr<detail::Replica>> replicas;
  /// KV-migration ring (disaggregated fleets only; null otherwise).
  std::unique_ptr<net::RingFabric> fabric;
  std::unique_ptr<detail::DisaggShared> disagg;
  TrafficGen traffic;
  LoadBalancer balancer;

  // ---- Autoscaler state (inert when cfg.autoscale.enabled is false) ----
  /// The per-tier live structure. Always built (a symmetric fleet is one
  /// whole-pool tier), but only the autoscaler ever moves the live counts.
  std::vector<Tier> tiers;
  util::SlidingWindow ttft_window;
  std::vector<ScaleEvent> scale_log;
  /// Reused load-snapshot buffer for route(): refreshed in place per
  /// arrival, so steady-state routing never allocates. The live count is
  /// the active count (active == index < live), handed to pick() directly.
  std::vector<LoadBalancer::ReplicaLoad> loads;

  /// One routing decision: snapshot every replica's load, ask the
  /// balancer. Pure bookkeeping — no engine events. Replicas outside their
  /// tier's live prefix are masked: a draining replica keeps its admitted
  /// work but receives nothing new. On a disaggregated fleet decode-role
  /// replicas are masked too — they receive work only by KV migration,
  /// never fresh arrivals (without disagg the mask reduces to the single
  /// tier's live prefix, so symmetric routing is untouched).
  detail::Replica& route() {
    loads.resize(replicas.size());
    std::uint32_t routable = 0;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const auto& r = replicas[i];
      const bool active =
          r->live &&
          (disagg == nullptr || cfg.roles[i] != ReplicaRole::kDecode);
      routable += active ? 1 : 0;
      loads[i] = {r->outstanding(),
                  static_cast<std::uint64_t>(r->kv.free_blocks()) *
                      r->kv.block_tokens(),
                  active};
    }
    return *replicas[balancer.pick(loads, routable)];
  }

  /// True once the arrival stream is exhausted and every routed request
  /// has finished or been rejected — the autoscaler's exit condition.
  bool drained() const {
    if (!shared.arrivals_done()) return false;
    for (const auto& r : replicas) {
      if (r->outstanding() > 0) return false;
    }
    return true;
  }
};

/// Open-loop injector: replays the pre-generated arrival schedule,
/// routing each arrival the moment it lands.
sim::Task arrivals_proc(FleetRun& run) {
  const std::vector<Arrival> schedule = run.traffic.open_loop_schedule();
  for (const Arrival& a : schedule) {
    if (a.at > run.engine.now()) {
      co_await run.engine.delay(a.at - run.engine.now());
    }
    detail::Replica& rep = run.route();
    Request& r = rep.make_request(a.shape);
    run.engine.schedule_call(0, &detail::enqueue_request_event, &rep, &r);
  }
}

/// Closed-loop client: submit (routed fresh each iteration, so a client's
/// requests follow the balancer), await completion, think, repeat. The
/// global request budget is shared across clients through FleetShared.
sim::Task client_proc(FleetRun& run) {
  while (!run.shared.arrivals_done()) {
    detail::Replica& rep = run.route();
    Request& r = rep.make_request(run.traffic.next_shape());
    run.engine.schedule_call(0, &detail::enqueue_request_event, &rep, &r);
    co_await r.done.wait();
    if (run.shared.arrivals_done()) break;
    co_await run.engine.delay(
        run.traffic.exponential_cycles(run.cfg.traffic.think_time_s));
  }
}

/// The autoscaling control loop: one evaluation every eval_interval_ms on
/// the shared fleet clock, one Autoscaler state machine per tier, all
/// evaluated at the same instant in tier order (deterministic — a tier
/// can grow while another shrinks on the same evaluation, and each keeps
/// its own streaks and cooldown). Per tier the loop reads the
/// window-scoped signals — the live members' per-eval queue peaks, and
/// for non-decode tiers the rolling-window TTFT p99 (decode tiers are
/// forced to the queue policy: no fresh TTFT ever forms on them, their
/// signal is the migrated-in backlog) — and applies the decision to the
/// tier's live prefix: scale-up activates the tier's next member,
/// scale-down deactivates its highest live member, which then drains
/// gracefully (the mask stops new routes AND new migration/steal
/// hand-offs; its scheduler keeps running until its admitted, queued and
/// migrated-in requests finish). Exits at the first evaluation after the
/// fleet fully drains, so the makespan can trail the last completion by
/// at most one interval. A symmetric fleet has one whole-pool tier, so
/// this loop is byte-identical to the single-controller one it replaces.
sim::Task autoscaler_proc(FleetRun& run) {
  const AutoscalerConfig& cfg = run.cfg.autoscale;
  const core::ArchConfig& arch = run.cfg.replicas.front().arch;
  std::vector<Autoscaler> controllers;
  controllers.reserve(run.tiers.size());
  for (std::size_t t = 0; t < run.tiers.size(); ++t) {
    controllers.emplace_back(
        tier_autoscaler_config(cfg, t,
                               run.tiers[t].role == ReplicaRole::kDecode),
        run.cfg.replicas.front().slo);
  }
  const auto interval = std::max<sim::Cycles>(
      1, static_cast<sim::Cycles>(cfg.eval_interval_ms * 1e-3 *
                                  arch.frequency_hz));
  std::vector<double> peaks(run.replicas.size(), 0.0);
  while (true) {
    co_await run.engine.delay(interval);
    if (run.drained()) co_return;
    const double now_ms = arch.cycles_to_ms(run.engine.now());
    // Take every replica's per-eval queue peak (taking from masked
    // replicas too keeps their windows fresh for reactivation), but only
    // each tier's live prefix forms the signal its controller sees.
    for (std::size_t i = 0; i < run.replicas.size(); ++i) {
      peaks[i] =
          static_cast<double>(run.replicas[i]->queue.take_window_peak());
    }
    run.ttft_window.evict_before(now_ms - cfg.ttft_window_ms);
    for (std::size_t t = 0; t < run.tiers.size(); ++t) {
      FleetRun::Tier& tier = run.tiers[t];
      double live_peaks = 0;
      for (std::uint32_t p = 0; p < tier.live; ++p) {
        live_peaks += peaks[tier.members[p]];
      }
      ScaleSignals signals;
      signals.live = tier.live;
      signals.queue_per_live = live_peaks / static_cast<double>(tier.live);
      signals.ttft_samples = run.ttft_window.count();
      signals.ttft_p99_ms = run.ttft_window.percentile(99.0);
      const Autoscaler::Decision d = controllers[t].evaluate(signals);
      if (d.delta == 0) continue;
      const std::uint32_t to = d.delta > 0 ? tier.live + 1 : tier.live - 1;
      run.scale_log.push_back({run.engine.now(), now_ms, tier.live, to,
                               d.trigger, static_cast<std::uint32_t>(t)});
      // Scale-up activates the tier's next member (its prefix grows by
      // one); scale-down deactivates its highest live member, which then
      // drains. On a symmetric fleet members[p] == p, so the indices the
      // observer sees are the legacy ones.
      const std::uint32_t index =
          tier.members[d.delta > 0 ? tier.live : tier.live - 1];
      if (run.shared.observer != nullptr) {
        const sim::Cycles at = run.engine.now();
        if (d.delta > 0) {
          run.shared.observer->record(LifecycleEvent::kScaleUp, at,
                                      kNoRequest, index, tier.live, to);
        } else {
          run.shared.observer->record(LifecycleEvent::kScaleDown, at,
                                      kNoRequest, index, tier.live, to);
          run.shared.observer->record(LifecycleEvent::kDrain, at, kNoRequest,
                                      index);
        }
      }
      run.replicas[index]->live = d.delta > 0;
      tier.live = to;
      tier.timeline.emplace_back(run.engine.now(), to);
      run.shared.live_replicas += static_cast<std::uint32_t>(d.delta);
    }
  }
}

template <typename T>
void append(std::vector<T>& pool, const std::vector<T>& samples) {
  pool.insert(pool.end(), samples.begin(), samples.end());
}

/// Occupied replica-cycles of one replica: the union of its live intervals
/// (from its tier's scale timeline), each extended to the drain instant of
/// the requests routed into it — a deactivated replica is still consuming
/// its deployment until the work it accepted finishes. `timeline` is the
/// tier's (cycle, live-count) step function starting at cycle 0, and
/// `index` the replica's position within its tier (== its fleet index on a
/// symmetric fleet, whose one tier is the whole pool).
std::uint64_t occupied_cycles(
    const std::vector<std::pair<sim::Cycles, std::uint32_t>>& timeline,
    std::uint32_t index, sim::Cycles makespan, const detail::Replica& rep) {
  // Intervals where the tier's live count covers this member position.
  std::vector<std::pair<sim::Cycles, sim::Cycles>> spans;
  bool open = false;
  sim::Cycles start = 0;
  for (const auto& [at, live] : timeline) {
    if (!open && live > index) {
      open = true;
      start = at;
    } else if (open && live <= index) {
      spans.emplace_back(start, at);
      open = false;
    }
  }
  if (open) spans.emplace_back(start, makespan);
  if (spans.empty()) return 0;
  // Drain extension: a request routed inside a span pins the replica until
  // it finishes (rejected requests resolve at arrival). Fresh work is only
  // routed while live, so each belongs to the last span starting at or
  // before its arrival. Migrated-in/stolen work can land on a replica
  // whose span opened after the request's fleet arrival instant (the
  // hand-off happens later) — it pins the earliest span instead of
  // silently dropping the extension. The retirement log covers every
  // resolved request; order does not matter here.
  for (const detail::FinishedRequest& r : rep.finished) {
    const sim::Cycles finish = r.rejected ? r.arrival : r.completed;
    bool matched = false;
    for (std::size_t s = spans.size(); s-- > 0;) {
      if (spans[s].first <= r.arrival) {
        spans[s].second = std::max(spans[s].second, finish);
        matched = true;
        break;
      }
    }
    if (!matched) {
      spans.front().second = std::max(spans.front().second, finish);
    }
  }
  // Drain tails can overlap the next activation: merge before summing.
  std::uint64_t total = 0;
  sim::Cycles lo = spans.front().first, hi = spans.front().second;
  for (std::size_t s = 1; s < spans.size(); ++s) {
    if (spans[s].first <= hi) {
      hi = std::max(hi, spans[s].second);
    } else {
      total += hi - lo;
      lo = spans[s].first;
      hi = spans[s].second;
    }
  }
  total += hi - lo;
  return total;
}

}  // namespace

FleetResult FleetSim::run() const { return run(nullptr); }

FleetResult FleetSim::run(Observer* observer) const {
  if (observer != nullptr &&
      observer->replicas() != config_.replicas.size()) {
    throw std::invalid_argument(
        "FleetSim::run observer must be built for the fleet width (" +
        std::to_string(config_.replicas.size()) + " replicas)");
  }
  if (observer != nullptr && config_.disaggregated()) {
    // Tag the exports with each replica's role so scale/drain instants
    // and the Prometheus scale counters say WHICH tier moved. Symmetric
    // fleets never tag, keeping their export bytes identical to
    // pre-role builds.
    std::vector<std::string> names;
    names.reserve(config_.roles.size());
    for (ReplicaRole role : config_.roles) {
      names.emplace_back(replica_role_name(role));
    }
    observer->set_role_names(std::move(names));
  }
  FleetRun run(config_, costs_);
  run.shared.observer = observer;
  // Control plane first: at a shared instant the scale decision lands
  // before that cycle's routing (either order is deterministic; this one
  // is fixed so the scale-event log is reproducible byte for byte).
  if (config_.autoscale.enabled) {
    run.engine.spawn(autoscaler_proc(run));
  }
  for (auto& r : run.replicas) {
    run.engine.spawn(detail::scheduler_proc(*r));
  }
  if (config_.traffic.process == ArrivalProcess::kClosedLoop) {
    const std::uint32_t clients =
        std::max<std::uint32_t>(1, config_.traffic.clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      run.engine.spawn(client_proc(run));
    }
  } else {
    run.engine.spawn(arrivals_proc(run));
  }
  run.engine.run();

  FleetResult result;
  const std::size_t n = run.replicas.size();
  const double frequency = config_.replicas.front().arch.frequency_hz;
  const sim::Cycles makespan = run.engine.now();
  const double duration_s = static_cast<double>(makespan) / frequency;

  // Pool the per-request latency samples (and sum the counters) BEFORE
  // finalize_metrics moves each replica's vectors into its own summary.
  std::vector<double> token;
  std::vector<sim::Cycles> ttft, e2e, queue_wait, gap;
  std::uint64_t good = 0;
  sim::Cycles busy = 0, decode_stall = 0, recompute = 0;
  FleetMetrics& m = result.fleet;
  double batch_members = 0;
  for (const auto& r : run.replicas) {
    append(ttft, r->ttft_cycles);
    append(token, r->token_ms);
    append(e2e, r->e2e_cycles);
    append(queue_wait, r->queue_wait_cycles);
    append(gap, r->gap_cycles);
    good += r->good;
    busy += r->busy_cycles;
    decode_stall += r->decode_stall_cycles;
    recompute += r->recompute_cycles;
    m.completed += r->completed;
    m.rejected += r->rejected;
    m.decode_tokens += r->decode_tokens;
    m.total_tokens += r->total_tokens;
    m.iterations += r->sched.iteration_count();
    // Keep the multiply-back through mean_batch_size(): the quotient and
    // product round-trip bit-identically, preserving the pooled mean.
    batch_members += r->sched.mean_batch_size() *
                     static_cast<double>(r->sched.iteration_count());
    m.prefill_chunk_steps += r->prefill_chunk_steps;
    m.chunked_prompts += r->chunked_prompts;
    m.decode_stall_iterations += r->decode_stall_iterations;
    m.peak_queue_depth = std::max(m.peak_queue_depth, r->queue.peak_depth());
    m.kv_peak_occupancy =
        std::max(m.kv_peak_occupancy, r->kv.peak_occupancy());
    m.kv_stall_events += r->kv.stall_events();
    m.kv_over_release_events += r->kv.over_release_events();
    m.kv_capacity_blocks += r->kv.capacity_blocks();
    m.kv_peak_used_blocks += r->kv.peak_used_blocks();
    m.kv_peak_frag_tokens += r->kv.peak_frag_tokens();
    m.preemptions += r->preemptions;
    m.recompute_tokens += r->recompute_tokens;
    // kv_blocks_in_use_at_end is summed from the finalized per-replica
    // metrics below: finalize_metrics drains each replica's prefix cache
    // first, so reading used_blocks() here would count retained cache
    // blocks as leaks.
    result.routed.push_back(r->routed);
  }
  m.offered = run.shared.injected;
  m.slo_good = good;
  m.slo = config_.replicas.front().slo;
  m.duration_s = duration_s;
  if (duration_s > 0) {
    m.throughput_req_s = static_cast<double>(m.completed) / duration_s;
    m.throughput_tok_s = static_cast<double>(m.total_tokens) / duration_s;
    m.decode_tok_s = static_cast<double>(m.decode_tokens) / duration_s;
    m.goodput_req_s = static_cast<double>(good) / duration_s;
    m.busy_fraction =
        static_cast<double>(busy) /
        (static_cast<double>(makespan) * static_cast<double>(n));
  }
  const core::ArchConfig& arch = config_.replicas.front().arch;
  m.ttft_ms = detail::cycle_summary_ms(std::move(ttft), arch);
  m.token_ms = util::percentile_summary(std::move(token));
  m.e2e_ms = detail::cycle_summary_ms(std::move(e2e), arch);
  m.queue_wait_ms = detail::cycle_summary_ms(std::move(queue_wait), arch);
  m.inter_token_gap_ms = detail::cycle_summary_ms(std::move(gap), arch);
  if (m.iterations > 0) {
    m.mean_batch_size = batch_members / static_cast<double>(m.iterations);
  }
  m.decode_stall_ms =
      config_.replicas.front().arch.cycles_to_ms(decode_stall);
  m.recompute_ms = config_.replicas.front().arch.cycles_to_ms(recompute);
  m.peak_in_flight = run.shared.peak_active;
  m.preempt = config_.replicas.front().scheduler.preempt;
  m.kv_block_tokens = run.replicas.front()->kv.block_tokens();

  result.disaggregated = config_.disaggregated();
  result.roles = config_.roles;
  if (run.fabric != nullptr) result.fabric_bytes = run.fabric->total_bytes();

  // ---- Live-replica accounting (trivial for static fleets: every
  // replica live for the whole makespan) ----
  result.autoscaled = config_.autoscale.enabled;
  result.scale_events = std::move(run.scale_log);
  // Fleet-wide live timeline: the per-tier scale events replayed as ±1
  // deltas on the summed initial live count. On a symmetric fleet the one
  // tier IS the fleet, so this reproduces the legacy (at, e.to) timeline
  // entry for entry.
  std::uint32_t initial_live = 0;
  for (const FleetRun::Tier& tier : run.tiers) {
    initial_live += tier.timeline.front().second;
  }
  std::vector<std::pair<sim::Cycles, std::uint32_t>> timeline;
  timeline.reserve(result.scale_events.size() + 1);
  timeline.emplace_back(0, initial_live);
  std::uint32_t running_live = initial_live;
  for (const ScaleEvent& e : result.scale_events) {
    running_live += e.to;
    running_live -= e.from;
    timeline.emplace_back(e.at, running_live);
  }
  result.min_live_replicas = initial_live;
  result.peak_live_replicas = initial_live;
  std::uint64_t live_cycles = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const sim::Cycles until =
        i + 1 < timeline.size() ? timeline[i + 1].first : makespan;
    live_cycles += static_cast<std::uint64_t>(timeline[i].second) *
                   (until - timeline[i].first);
    result.min_live_replicas =
        std::min(result.min_live_replicas, timeline[i].second);
    result.peak_live_replicas =
        std::max(result.peak_live_replicas, timeline[i].second);
  }
  if (makespan > 0) {
    result.mean_live_replicas =
        static_cast<double>(live_cycles) / static_cast<double>(makespan);
  }
  // Occupancy is accounted per tier: each member's live spans come from
  // its own tier's timeline (on a symmetric fleet the tier timeline and
  // member positions are exactly the legacy fleet-wide ones).
  std::vector<std::uint64_t> tier_occupied(run.tiers.size(), 0);
  for (std::size_t t = 0; t < run.tiers.size(); ++t) {
    const FleetRun::Tier& tier = run.tiers[t];
    for (std::size_t p = 0; p < tier.members.size(); ++p) {
      tier_occupied[t] +=
          occupied_cycles(tier.timeline, static_cast<std::uint32_t>(p),
                          makespan, *run.replicas[tier.members[p]]);
    }
    result.replica_cycles += tier_occupied[t];
  }
  result.replica_seconds =
      static_cast<double>(result.replica_cycles) / frequency;

  result.replicas.reserve(n);
  for (auto& r : run.replicas) {
    result.replicas.push_back(detail::finalize_metrics(*r));
  }
  if (observer != nullptr) observer->finalize(makespan);
  for (const FleetMetrics& rm : result.replicas) {
    m.requests.insert(m.requests.end(), rm.requests.begin(),
                      rm.requests.end());
    m.kv_blocks_in_use_at_end += rm.kv_blocks_in_use_at_end;
    m.prefix_cache = m.prefix_cache || rm.prefix_cache;
    m.kv_swap = m.kv_swap || rm.kv_swap;
    m.cache_lookups += rm.cache_lookups;
    m.cache_lookup_tokens += rm.cache_lookup_tokens;
    m.cache_hit_requests += rm.cache_hit_requests;
    m.cache_hit_tokens += rm.cache_hit_tokens;
    m.saved_prefill_cycles += rm.saved_prefill_cycles;
    m.saved_prefill_ms += rm.saved_prefill_ms;
    m.cache_insert_blocks += rm.cache_insert_blocks;
    m.cache_evict_blocks += rm.cache_evict_blocks;
    m.cache_cow_events += rm.cache_cow_events;
    m.cache_dedup_blocks += rm.cache_dedup_blocks;
    m.cache_swap_out_blocks += rm.cache_swap_out_blocks;
    m.cache_swap_in_blocks += rm.cache_swap_in_blocks;
    m.cache_swap_ms += rm.cache_swap_ms;
    m.cache_blocks_at_end += rm.cache_blocks_at_end;
    m.prefill_cycles += rm.prefill_cycles;
    m.kv_migrations += rm.kv_migrations;
    m.kv_migrated_blocks += rm.kv_migrated_blocks;
    m.kv_migrate_wire_bytes += rm.kv_migrate_wire_bytes;
    m.kv_migrate_ingest_ms += rm.kv_migrate_ingest_ms;
    m.work_steals += rm.work_steals;
    m.steal_wire_bytes += rm.steal_wire_bytes;
    m.handoffs_in += rm.handoffs_in;
    m.handoffs_out += rm.handoffs_out;
  }
  if (m.cache_lookup_tokens > 0) {
    m.cache_hit_rate = static_cast<double>(m.cache_hit_tokens) /
                       static_cast<double>(m.cache_lookup_tokens);
  }
  std::sort(m.requests.begin(), m.requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });

  // Load imbalance over the routing-eligible replicas only: on a
  // disaggregated fleet decode replicas receive zero fresh arrivals by
  // design, so folding them into the mean would read a healthy role split
  // as pathological imbalance. Symmetric fleets have every replica
  // eligible — the arithmetic (and its bits) is unchanged.
  std::uint64_t max_routed = 0, total_routed = 0;
  std::uint64_t eligible = 0;
  for (std::size_t i = 0; i < result.routed.size(); ++i) {
    if (result.disaggregated && config_.roles[i] == ReplicaRole::kDecode) {
      continue;
    }
    ++eligible;
    max_routed = std::max(max_routed, result.routed[i]);
    total_routed += result.routed[i];
  }
  if (total_routed > 0) {
    result.load_imbalance = static_cast<double>(max_routed) *
                            static_cast<double>(eligible) /
                            static_cast<double>(total_routed);
  }
  bool any = false;
  double lo = 0, hi = 0;
  for (const FleetMetrics& rm : result.replicas) {
    if (rm.completed == 0) continue;
    if (!any) {
      lo = hi = rm.ttft_ms.p99;
      any = true;
    } else {
      lo = std::min(lo, rm.ttft_ms.p99);
      hi = std::max(hi, rm.ttft_ms.p99);
    }
  }
  result.ttft_p99_spread_ms = any ? hi - lo : 0.0;

  // Per-tier rollups (disaggregated fleets only — symmetric results keep
  // `tiers` empty so their tables and digests cannot move).
  if (result.disaggregated) {
    result.tiers.reserve(run.tiers.size());
    for (std::size_t t = 0; t < run.tiers.size(); ++t) {
      const FleetRun::Tier& tier = run.tiers[t];
      FleetResult::TierStats ts;
      ts.role = tier.role;
      ts.members = tier.members;
      ts.replica_cycles = tier_occupied[t];
      ts.min_live = tier.timeline.front().second;
      ts.peak_live = ts.min_live;
      std::uint64_t tier_live_cycles = 0;
      for (std::size_t i = 0; i < tier.timeline.size(); ++i) {
        const sim::Cycles until = i + 1 < tier.timeline.size()
                                      ? tier.timeline[i + 1].first
                                      : makespan;
        tier_live_cycles +=
            static_cast<std::uint64_t>(tier.timeline[i].second) *
            (until - tier.timeline[i].first);
        ts.min_live = std::min(ts.min_live, tier.timeline[i].second);
        ts.peak_live = std::max(ts.peak_live, tier.timeline[i].second);
      }
      if (makespan > 0) {
        ts.mean_live = static_cast<double>(tier_live_cycles) /
                       static_cast<double>(makespan);
      }
      bool tier_any = false;
      double tier_lo = 0, tier_hi = 0;
      for (std::uint32_t member : tier.members) {
        const FleetMetrics& rm = result.replicas[member];
        if (rm.completed == 0) continue;
        if (!tier_any) {
          tier_lo = tier_hi = rm.ttft_ms.p99;
          tier_any = true;
        } else {
          tier_lo = std::min(tier_lo, rm.ttft_ms.p99);
          tier_hi = std::max(tier_hi, rm.ttft_ms.p99);
        }
      }
      ts.ttft_p99_spread_ms = tier_any ? tier_hi - tier_lo : 0.0;
      result.tiers.push_back(std::move(ts));
    }
  }
  return result;
}

util::Table FleetResult::to_table(const std::string& title) const {
  util::Table t(title);
  // The role column exists only on disaggregated fleets, so symmetric
  // output stays byte-identical with disaggregation compiled in.
  std::vector<std::string> header = {
      "replica", "routed",  "done/shed", "goodput", "TTFT p50", "TTFT p99",
      "tok p99", "in-flt",  "busy",      "KV peak", "preempt"};
  if (disaggregated) header.insert(header.begin() + 1, "role");
  t.set_header(header);
  const auto row = [&](const std::string& name, const std::string& role,
                       const FleetMetrics& m, std::uint64_t routed_count) {
    std::vector<std::string> cells = {
        name, util::fmt_int(static_cast<long long>(routed_count)),
        util::fmt_int(static_cast<long long>(m.completed)) + "/" +
            util::fmt_int(static_cast<long long>(m.rejected)),
        util::fmt_fixed(m.goodput_req_s, 2),
        util::fmt_fixed(m.ttft_ms.p50, 1),
        util::fmt_fixed(m.ttft_ms.p99, 1),
        util::fmt_fixed(m.token_ms.p99, 2),
        util::fmt_int(m.peak_in_flight),
        util::fmt_percent(m.busy_fraction, 1),
        util::fmt_percent(m.kv_peak_occupancy, 1),
        util::fmt_int(static_cast<long long>(m.preemptions))};
    if (disaggregated) cells.insert(cells.begin() + 1, role);
    t.add_row(cells);
  };
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const std::string role =
        disaggregated ? replica_role_name(roles[i]) : "";
    row(std::to_string(i), role, replicas[i], routed[i]);
  }
  t.add_separator();
  row("fleet", "-", fleet, fleet.offered);
  return t;
}

}  // namespace looplynx::serve
