// One serving replica's engine room: the machinery FleetSim runs once per
// replica on one shared engine behind a LoadBalancer (ServingSim is a
// 1-replica FleetSim).
//
// A Replica owns everything one deployment needs per run: the admission
// queue, the paged KvBlockManager, the iteration scheduler, the request
// storage and every progress counter FleetMetrics reports. It does NOT own
// the sim::Engine or the TrafficGen — those belong to FleetSim::run,
// because a fleet shares one clock and one arrival stream across all
// replicas.
//
// This header is internal to src/serve/: the public entry points are
// serving_sim.hpp and fleet.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/step_cost.hpp"
#include "net/fabric.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/serving_sim.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/slot_map.hpp"
#include "util/stats.hpp"

namespace looplynx::serve {
class Observer;  // serve/observe.hpp — optional lifecycle/cycle recorder
}

namespace looplynx::serve::detail {

/// Fleet-wide counters shared by every replica of one run. Request ids are
/// allocated from here so they are unique across the fleet and strictly
/// increasing in injection order — the property the age-ordered preemption
/// policy (oldest == lowest id) and the Host submit/flush record mapping
/// both rely on.
struct FleetShared {
  std::uint32_t target = 0;     // traffic.num_requests, the injection budget
  std::uint32_t injected = 0;   // requests created fleet-wide so far
  std::uint32_t active = 0;     // admitted and unfinished, fleet-wide
  std::uint32_t peak_active = 0;
  /// Live replicas right now — the sum of every tier's live-prefix count
  /// (a symmetric fleet is one tier, so this is the legacy index prefix
  /// [0, live_replicas)). 1 for single-replica runs, the fleet width for
  /// static fleets; the autoscaler moves it mid-run. Snapshotted into
  /// each request at routing time for RequestRecord::live_replicas.
  std::uint32_t live_replicas = 1;
  /// When non-null (autoscaled fleets only), every host-visible first
  /// token pushes its (emission time ms, TTFT ms) sample here — the
  /// autoscaler's rolling-window SLO signal, fed at emission so an
  /// evaluation never re-scans completed records. Null on static runs:
  /// no samples, no behavior change.
  util::SlidingWindow* ttft_window = nullptr;
  /// When non-null, the engine room records lifecycle events and cycle-
  /// accounting spans here (serve/observe.hpp). Same contract as
  /// ttft_window: pure bookkeeping on the simulated clock — no engine
  /// events — so attaching an observer cannot change a run's schedule or
  /// metrics. Null (the default) means zero observability overhead and
  /// byte-identical output to an unobserved build.
  Observer* observer = nullptr;

  bool arrivals_done() const { return injected >= target; }
};

/// Shared state of one disaggregated fleet run (FleetConfig::roles). Off =
/// absent: symmetric fleets never construct one — Replica::disagg stays
/// null, no fabric exists, and every disaggregation branch in the engine
/// room is dead, which is what keeps role-less output byte-identical.
struct DisaggShared {
  /// The timed KV-migration ring (one simplex link per replica). Owned by
  /// the fleet run frame alongside the engine.
  net::RingFabric* fabric = nullptr;
  /// Every replica of the run in fleet order — migration target and
  /// work-steal victim picks scan this (deterministic index tie-breaks).
  std::vector<Replica*> replicas;
};

/// Plain-data snapshot of a retired request, appended the moment it
/// completes or is rejected. The Request object itself is recycled into the
/// arena right away; everything read after the run — RequestRecords,
/// the fleet timeline's occupancy integral — comes from this log.
struct FinishedRequest {
  std::uint32_t id = 0;
  std::uint32_t prefill_tokens = 0;
  std::uint32_t decoded = 0;
  std::uint32_t prefill_chunks = 0;
  std::uint32_t preempt_count = 0;
  std::uint32_t cached_prefix = 0;
  std::uint32_t live_at_route = 1;
  bool rejected = false;
  bool migrated = false;  // KV shipped to a decode replica mid-flight
  bool stolen = false;    // taken from a neighbor's queue while Queued
  sim::Cycles arrival = 0;
  sim::Cycles admitted = 0;
  sim::Cycles first_token = 0;
  sim::Cycles completed = 0;
  sim::Cycles max_token_gap = 0;
};

/// Everything one replica owns for one run. Lives on FleetSim::run's heap;
/// all coroutines hold references into it and either complete before it
/// is destroyed or are destroyed un-resumed with the engine.
struct Replica {
  Replica(sim::Engine& engine_, const ServingConfig& cfg_,
          const core::StepCostModel& costs_, FleetShared& shared_,
          std::uint32_t id_)
      : engine(engine_),
        cfg(cfg_),
        costs(costs_),
        shared(shared_),
        id(id_),
        queue(cfg_.scheduler.queue_capacity),
        kv(cfg_.arch, cfg_.model, cfg_.kv_budget_bytes_per_node,
           cfg_.kv_block_tokens),
        sched(cfg_.scheduler),
        work(engine_) {
    // Off = absent: when the flag is unset no PrefixCache object exists and
    // the engine room never branches into cache code — the run's event
    // sequence (and every output byte) is identical to a cache-less build.
    if (cfg_.prefix_cache) cache.emplace(kv, costs_, cfg_.kv_swap);
  }
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  sim::Engine& engine;
  const ServingConfig& cfg;
  const core::StepCostModel& costs;
  FleetShared& shared;
  const std::uint32_t id;  // replica index within the fleet (0 for lone runs)

  RequestQueue queue;
  KvBlockManager kv;
  Scheduler sched;
  sim::Signal work;  // arrivals and completions nudge the scheduler
  /// Content-addressed prefix cache over `kv`; engaged only when
  /// cfg.prefix_cache is set (see the ctor note — off means absent).
  std::optional<PrefixCache> cache;

  // ---- Disaggregation (set by the fleet harness before any process
  // spawns; both stay at their defaults on symmetric/single runs) ----
  ReplicaRole role = ReplicaRole::kGeneral;
  DisaggShared* disagg = nullptr;
  /// False while this replica sits outside its tier's live prefix
  /// (autoscaled fleets only — static runs leave every replica live).
  /// The fleet's router masks it, and on disaggregated fleets the
  /// hand-off paths respect it too: a deactivated replica is never
  /// picked as a KV-migration target and never initiates a steal — but
  /// it keeps its scheduler running until everything already routed,
  /// migrated or stolen into it has finished (graceful drain), and
  /// in-flight hand-offs aimed at it before the scale-down still land
  /// and are served.
  bool live = true;

  bool paged_admission() const {
    return cfg.scheduler.preempt != PreemptPolicy::kNone;
  }

  /// Flat request arena: requests live in recycled slots with stable
  /// addresses (lists, batches and closed-loop clients hold Request*
  /// across engine events) and zero steady-state allocation. Whoever
  /// retires a request erases its slot — see the release protocol notes
  /// in replica.cpp.
  util::SlotMap<Request> pool;
  /// Admitted requests awaiting an iteration turn, FIFO by stamp and
  /// pre-split into the scheduler's selection classes (see ReadyQueue). A
  /// request sits on at most one kReadyChannel list at a time (a ready
  /// class list, an iteration's deferred list, or the fallback's lone
  /// list).
  ReadyQueue ready;
  /// Every admitted, unfinished request in ascending id order (per-replica
  /// admission is FIFO over monotone ids) — the preemption policies' age
  /// scan. head is the oldest, tail the youngest.
  RequestList<kAgeChannel> age;
  /// Retirement log, appended at completion/rejection; finalize_metrics
  /// sorts it by id so records come out in the legacy creation order.
  std::vector<FinishedRequest> finished;

  // ---- Reused per-iteration scratch (no steady-state reallocation) ----
  std::vector<ScheduledStep> batch;
  std::vector<ScheduledStep> prefills;
  std::vector<Request*> decodes;
  std::vector<std::uint32_t> decode_positions;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> prefill_chunk_spans;

  // ---- Progress counters ----
  std::uint32_t routed = 0;     // requests the balancer sent here
  std::uint32_t active = 0;     // admitted and not yet finished
  std::uint32_t peak_active = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t good = 0;       // completed within both SLOs
  std::uint64_t decode_tokens = 0;
  std::uint64_t total_tokens = 0;
  sim::Cycles busy_cycles = 0;  // summed iteration spans
  std::uint64_t prefill_chunk_steps = 0;
  std::uint64_t chunked_prompts = 0;
  std::uint64_t decode_stall_iterations = 0;
  sim::Cycles decode_stall_cycles = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t recompute_tokens = 0;     // KV dropped -> re-run as prefill
  sim::Cycles recompute_cycles = 0;       // pipeline cost of those re-runs
  std::uint32_t recovering = 0;  // preempted requests not yet re-prefilled
  /// Prefill-class pipeline cycles actually executed (whole prompts,
  /// chunks and recompute re-runs alike) — the figure the prefix cache
  /// shrinks, and what the chat-cache pin compares across runs.
  sim::Cycles prefill_cycles_executed = 0;

  // ---- Disaggregation counters (all 0 when `disagg` is absent) ----
  std::uint64_t migrations_out = 0;  // prompts whose KV this replica shipped
  std::uint64_t migrations_in = 0;   // migrated KV lists landed here
  std::uint64_t migrated_blocks_out = 0;  // KV blocks shipped out
  /// Bytes this replica's migrations put on the wire: payload x hops —
  /// multi-hop paths serialize on every link crossed, and the fabric's
  /// total_bytes() counts them the same way (conservation invariant).
  std::uint64_t migrate_wire_bytes = 0;
  std::uint64_t steals_out = 0;       // queued requests neighbors took
  std::uint64_t steals_in = 0;        // queued requests this replica took
  std::uint64_t steal_wire_bytes = 0;  // prompt bytes x hops (thief side)
  /// Ingest-DMA ledger: migrate_proc deposits the landing price here; the
  /// scheduler drains it into the iteration offset (and a `kv-migrate`
  /// span when observed) exactly like the prefix cache's swap ledger, so
  /// the tiling identity holds with migration active.
  sim::Cycles pending_migrate_cycles = 0;
  sim::Cycles migrate_ingest_cycles = 0;  // drained total, for metrics
  /// Hand-offs that re-homed a request here / away from here (migrations +
  /// steals, counted at delivery). Balance outstanding(): a migrated
  /// request stays the source's load until it lands.
  std::uint32_t handoffs_in = 0;
  std::uint32_t handoffs_out = 0;
  /// True while this replica's one permitted in-flight steal is on the
  /// wire (prevents an idle replica from draining a whole neighbor queue
  /// before the first stolen request even lands).
  bool steal_inflight = false;

  // ---- Prefix-cache counters (all 0 when `cache` is absent) ----
  std::uint64_t cache_lookups = 0;        // admissions that consulted it
  std::uint64_t cache_lookup_tokens = 0;  // prompt tokens offered to lookup
  std::uint64_t cache_hit_requests = 0;   // admissions with >= 1 hit token
  std::uint64_t cache_hit_tokens = 0;     // prefill tokens skipped
  sim::Cycles cache_saved_prefill_cycles = 0;  // prefill_cycles(hit) saved

  // ---- Latency samples (one per completed request) ----
  /// Mean decode-token latency in ms. This is the one latency series that
  /// must stay in the double domain: each sample divides a cycle span by
  /// the request's decode count, so there is no single integer key whose
  /// order matches the converted values.
  std::vector<double> token_ms;
  /// TTFT / end-to-end / queue-wait spans and inter-token gaps, kept in raw
  /// cycles and summarized through cycle_summary_ms — the integers
  /// radix-sort in O(n) where the legacy per-sample ms doubles paid a
  /// comparison sort that dominated finalize.
  std::vector<sim::Cycles> ttft_cycles, e2e_cycles, queue_wait_cycles;
  /// Gaps between consecutive host-visible tokens, pooled replica-wide
  /// (one sample per decode-class token, the largest population by far).
  std::vector<sim::Cycles> gap_cycles;

  /// Requests routed here and not yet finished or rejected — the "queued +
  /// running" load the join-shortest-queue balancer compares. Counted from
  /// routing (not queue push) so same-cycle burst arrivals are visible to
  /// the very next routing decision. Hand-offs (KV migration / work
  /// stealing) re-home the load at delivery time; both counters are 0 on
  /// symmetric fleets, reducing to the legacy routed - resolved.
  std::uint32_t outstanding() const {
    return routed + handoffs_in - handoffs_out -
           static_cast<std::uint32_t>(completed + rejected);
  }

  double ms(sim::Cycles c) const { return cfg.arch.cycles_to_ms(c); }

  /// Creates a request routed to this replica in a recycled arena slot.
  /// The id comes from the fleet-wide counter; the caller schedules
  /// enqueue_request_event for it.
  Request& make_request(workload::Scenario shape);

  void record_completion(Request& r);

  /// Appends the retirement snapshot for `r` (state and timestamps must be
  /// final). Does not touch the arena — slot release is the caller's move.
  void retire(const Request& r);
};

/// The replica's continuous-batching loop: admit, select a batch, price
/// the members' back-to-back pipeline slots, pay host sync once, repeat.
/// It steps every admitted request itself — one engine event per
/// iteration — and owns the completion and pop-reject paths. Exits when
/// the fleet-wide arrival stream is exhausted and this replica has
/// drained. Livelock-freedom under kRecomputeYoungest holds per replica
/// (eviction never crosses replicas — each owns its KV pool).
sim::Task scheduler_proc(Replica& f);

/// KV migration transfer (disaggregated fleets): ships `blocks` Datapacks
/// of `r`'s KV from `src` to `dst` over the fleet fabric, then re-homes
/// the request — r.home = dst, ingest price into dst's kv-migrate ledger,
/// force-push into dst's queue, work nudge. Spawned by src's scheduler at
/// the prompt's last chunk; r's KV blocks on `src` were already released
/// (the descriptor-only fabric moves bytes, not block identities).
sim::Task migrate_proc(Replica& src, Replica& dst, Request& r,
                       std::uint32_t blocks);

/// Work-steal transfer: ships `r`'s prompt token ids from `victim`'s
/// queue to the idle `thief`, then re-homes and enqueues it there. No KV
/// moves (the request was still Queued), so nothing lands in the
/// kv-migrate ledger — the wire time on the shared fabric is the price.
sim::Task steal_proc(Replica& thief, Replica& victim, Request& r);

/// Engine callback (`Engine::schedule_call`) through which every arrival,
/// open- or closed-loop, enters its replica: stamp and record the
/// arrival, enqueue (or reject when the queue is full), signal work.
/// `replica`/`request` are the type-erased Replica* / Request*.
void enqueue_request_event(void* replica, void* request);

/// Builds this replica's FleetMetrics after engine.run() returned. Moves
/// the latency sample vectors out of the replica — harnesses that pool
/// samples fleet-wide must copy them first.
FleetMetrics finalize_metrics(Replica& f);

/// Percentile summary of integer cycle-domain latency samples, reported in
/// milliseconds. Radix-sorts the cycles and converts ascending: cycles_to_ms
/// is a monotone non-decreasing map, so the converted sequence is exactly
/// the ascending-sorted ms sequence and the mean/percentile arithmetic
/// reproduces util::percentile_summary over the per-sample ms values bit
/// for bit — at O(n) instead of a comparison sort over millions of doubles.
util::PercentileSummary cycle_summary_ms(std::vector<sim::Cycles> cycles,
                                         const core::ArchConfig& arch);

}  // namespace looplynx::serve::detail
