// One serving replica's engine room: the machinery FleetSim runs once per
// replica on one shared engine behind a LoadBalancer (a lone replica is
// the width-1 fleet).
//
// A Replica owns everything one deployment needs per run: the admission
// queue, the paged KvBlockManager, the iteration scheduler, the request
// storage and every progress counter FleetMetrics reports. It does NOT own
// the sim::Engine or the TrafficGen — those belong to FleetSim::run,
// because a fleet shares one clock and one arrival stream across all
// replicas.
//
// Batch members occupy the time-shared pipeline back to back inside an
// iteration — each priced by core::StepCostModel rather than re-simulated
// — and the host PCIe sync is paid once per iteration; the scheduler loop
// steps every member itself, one engine wake per iteration, except that a
// decode-only stretch is booked as one run, with identical results, that
// lasts until its batch changes or something reaches the replica
// (book_decode_run and cut_decode_run in replica.cpp).
//
// This header is internal to src/serve/: the public entry point is
// fleet.hpp.
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
/// policy (oldest == lowest id) and the id-sorted request records both
/// rely on.
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
  /// events of its own — so attaching an observer cannot change a run's
  /// metrics; it only makes every iteration take its own wake. Null (the
  /// default) means zero observability overhead and byte-identical output
  /// to an unobserved build.
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
/// arena right away; everything read after the run comes from this log:
/// summarize() derives the TTFT / token / e2e / queue-wait series, the SLO
/// count, the decode-token and prefill-chunk counters and the
/// RequestRecords from it, and the fleet timeline its occupancy integral.
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

/// A decode-only run in progress (book_decode_run in replica.cpp):
/// iterations [1, close) of `Replica::batch`, the first starting at
/// `start`, are booked but reach the members only at the run's wake, the
/// start of iteration `close`. A touch (cut_decode_run) can move that wake
/// earlier; close == 0 means no run.
struct DecodeRun {
  sim::Cycles start = 0;
  std::uint32_t close = 0;
  /// Ticket of the wake armed at `start`: the engine order a per-iteration
  /// wake of the run would have had among its cycle's events.
  std::uint64_t ticket = 0;
  /// Iteration starts s_1 … s_close of a multi-member run; a lone member's
  /// are priced from the step table on demand.
  std::vector<sim::Cycles> starts;
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
  /// addresses (lists and batches hold Request* across engine events)
  /// and zero steady-state allocation. Whoever retires a request erases
  /// its slot — see the release protocol notes in replica.cpp.
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
  /// Retirement log, appended at completion/rejection; summarize() sorts
  /// the records it builds from it by id (the creation order).
  std::vector<FinishedRequest> finished;

  /// The decode run in progress and the scheduler's wake while it lasts.
  DecodeRun run;
  sim::Timer run_wake;

  // ---- Reused per-iteration scratch (no steady-state reallocation) ----
  std::vector<ScheduledStep> batch;
  std::vector<ScheduledStep> prefills;
  std::vector<Request*> decodes;
  std::vector<std::uint32_t> decode_positions;

  // ---- Progress counters ----
  std::uint32_t routed = 0;     // requests the balancer sent here
  std::uint32_t active = 0;     // admitted and not yet finished
  std::uint32_t peak_active = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t total_tokens = 0;
  sim::Cycles busy_cycles = 0;  // summed iteration spans
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
  std::uint64_t migrated_blocks_out = 0;  // KV blocks shipped out
  /// Bytes this replica's migrations put on the wire: payload x hops —
  /// multi-hop paths serialize on every link crossed, and the fabric's
  /// total_bytes() counts them the same way (conservation invariant).
  std::uint64_t migrate_wire_bytes = 0;
  std::uint64_t steals_out = 0;       // queued requests neighbors took
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
  std::uint64_t cache_blocks_at_end = 0;  // resident when teardown() drained

  /// Gaps between consecutive host-visible tokens in raw cycles, pooled
  /// replica-wide: one sample per decode-class token, the largest
  /// population by far, held as exact (cycles, count) runs so memory
  /// follows the distinct gaps, not the tokens. The only latency series
  /// not derivable from the retirement log; teardown() compacts it and
  /// summarize() merges and reads it through cycle_summary_ms.
  util::ValueCounts gap_cycles;

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

  /// Finishes `r`: final state and timestamp, KV release, the live
  /// counters, the observer's kFinish, then retire(). Latency samples and
  /// the SLO verdict are not taken here; summarize() reads them off the log.
  void record_completion(Request& r);

  /// Appends the retirement snapshot for `r` (state and timestamps must be
  /// final). Does not touch the arena — slot release is the caller's move.
  void retire(const Request& r);
};

/// Free KV tokens of `f` as the event being run sees them: a decode run's
/// growth counts up to the iterations whose own wake would already have
/// run. The kv-aware balancer reads this.
std::uint64_t free_kv_tokens(const Replica& f);

/// The replica's continuous-batching loop: admit, select a batch, price
/// the members' back-to-back pipeline slots, pay host sync once, repeat.
/// It steps every admitted request itself and owns the completion and
/// pop-reject paths. An iteration normally takes one engine wake; a
/// decode-only stretch is booked as a run of iterations in one wake, with
/// results identical to stepping it, until its batch changes or a touch
/// cuts it (book_decode_run in replica.cpp states the run rules, the loop
/// the close rule, cut_decode_run the cut rule). Exits when
/// the fleet-wide arrival stream is exhausted and this replica has
/// drained. Livelock-freedom under kRecomputeYoungest holds per replica
/// (eviction never crosses replicas — each owns its KV pool).
sim::Task scheduler_proc(Replica& f);

/// KV migration transfer (disaggregated fleets): ships `r`'s `blocks` KV
/// blocks from `src` to `dst` in one RingFabric::transfer, one pack per
/// block, then re-homes the request — r.home = dst, ingest price into
/// dst's kv-migrate ledger, force-push into dst's queue, work nudge. Spawned by src's scheduler at
/// the prompt's last chunk; r's KV blocks on `src` were already released
/// (the descriptor-only fabric moves bytes, not block identities).
sim::Task migrate_proc(Replica& src, Replica& dst, Request& r,
                       std::uint32_t blocks);

/// Work-steal transfer: ships `r`'s prompt token ids from `victim`'s
/// queue to the idle `thief`, then re-homes and enqueues it there. No KV
/// moves (the request was still Queued), so nothing lands in the
/// kv-migrate ledger — the wire time on the shared fabric is the price.
sim::Task steal_proc(Replica& thief, Replica& victim, Request& r);

/// Engine callback (`Engine::schedule_call`) through which every arrival
/// enters its replica: stamp and record the arrival, enqueue (or reject
/// when the queue is full), signal work.
/// `replica`/`request` are the type-erased Replica* / Request*.
void enqueue_request_event(void* replica, void* request);

/// End-of-run step for one replica, after engine.run() returned and before
/// any summarize() reads it: hands the KV gauges to the observer, records
/// the resident cache blocks, drains the prefix cache and compacts the
/// inter-token gap store.
void teardown(Replica& f);

/// Builds the FleetMetrics of any group of torn-down replicas — one replica
/// or the whole fleet, by the same rules: counters and tokens sum, latency
/// samples pool (the inter-token gaps by merging each member's store, the
/// rest read off each member's `finished` log), rates divide by the shared
/// makespan, `peak_queue_depth` and `kv_peak_occupancy` take the worst
/// replica, and `peak_in_flight` is the group's concurrent peak, which only
/// the caller knows. Echo fields (`slo`, `preempt`, `kv_block_tokens`) come
/// from the first replica. `records` builds the group's RequestRecords (for
/// replicas with keep_request_records set); FleetSim::run asks for them on
/// the fleet rollup only.
FleetMetrics summarize(const std::vector<const Replica*>& group,
                       sim::Cycles makespan, std::uint32_t peak_in_flight,
                       bool records);

/// Percentile summary of a compacted store of cycle-domain latency
/// samples, reported in milliseconds. cycles_to_ms is monotone
/// non-decreasing, so ValueCounts::summary gives the bits a sort of the
/// per-sample ms values would, without ever materializing them.
util::PercentileSummary cycle_summary_ms(const util::ValueCounts& cycles,
                                         const core::ArchConfig& arch);

}  // namespace looplynx::serve::detail
