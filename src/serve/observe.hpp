// Deterministic serve-layer observability: per-request lifecycle event
// log, per-replica cycle-accounting breakdown, and byte-stable exporters
// (Chrome/Perfetto trace-event JSON + Prometheus text exposition).
//
// The Observer is a nullable hook (detail::FleetShared::observer, the same
// pattern as the autoscaler's ttft_window): when absent, the engine room
// never touches it and a run's event sequence — and therefore every byte
// of its output — is identical to an unobserved binary. When attached, all
// recording is pure bookkeeping on the simulated clock: no engine events,
// no wall clock, no allocation that feeds back into scheduling, so an
// observed run produces the *same* FleetMetrics as an unobserved one
// (pinned in tests/test_observe.cpp).
//
// Cycle accounting: each replica's timeline [0, makespan] is partitioned
// into the categories below. Iterations contribute their pipeline
// placement exactly (decode group, prefill chunks by kind, PCIe host
// sync); scheduler waits are classified at sleep time; whatever
// trails the replica's last activity is "drain". finalize() asserts the
// tiling identity — per replica, the category totals sum to the makespan
// exactly, no gaps, no overlaps (the serve-layer analog of the paper's
// Fig. 5 span accounting in sim::Trace).
//
// Determinism rules (DESIGN.md §7): exports are keyed off simulated cycles
// only — every timestamp is an integer cycle count and every millisecond
// figure is derived by integer cycle→microsecond arithmetic, so the
// emitted bytes are identical across compilers, build modes and re-runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace looplynx::serve {

/// The lifecycle event vocabulary. Request-scoped events carry the request
/// id; fleet-scoped events (scale decisions, replica drains) carry
/// kNoRequest and the affected replica index.
enum class LifecycleEvent : std::uint8_t {
  kRoute,          // balancer picked a replica (a = live replicas)
  kArrive,         // entered its replica (a = prefill, b = decode shape)
  kAdmit,          // popped from the queue, KV reserved (a = active after)
  kReject,         // shed (a = 0 queue-full, 1 oversized-for-KV-budget)
  kFirstChunk,     // first prefill chunk executed (a = tokens, b = cursor)
  kChunk,          // subsequent prefill chunk (a = tokens, b = cursor)
  kFirstToken,     // token #1 host-visible (TTFT instant)
  kDecode,         // decode token host-visible (a = tokens so far)
  kPreempt,        // KV dropped (a = tokens dropped, b = preempt count)
  kRecomputeStart, // first re-prefill chunk of a recovery (a = target)
  kRecomputeEnd,   // recovery complete, KV rebuilt (a = recomputed tokens)
  kFinish,         // all decode tokens produced (a = decoded, b = preempts)
  kScaleUp,        // autoscaler activated a replica (a = from, b = to)
  kScaleDown,      // autoscaler deactivated a replica (a = from, b = to)
  kDrain,          // deactivated replica begins draining admitted work
  kCacheHit,       // prefix-cache admission hit (a = tokens, b = blocks)
  kCacheMiss,      // prefix-cache admission found nothing cached
  kKvMigrate,      // KV blocks landed from a prefill replica (a = blocks,
                   // b = source replica); recorded on the receiving replica
  kSteal,          // queued request stolen by an idle replica (a = source
                   // replica); recorded on the thief at delivery
};

/// Stable CLI/export-facing event names ("route", "first-token", ...).
const char* lifecycle_event_name(LifecycleEvent kind);

/// `request` value of fleet-scoped events (scale / drain).
inline constexpr std::uint32_t kNoRequest = 0xffffffffu;

struct ObservedEvent {
  sim::Cycles at = 0;
  LifecycleEvent kind = LifecycleEvent::kArrive;
  std::uint32_t request = kNoRequest;  // fleet-wide id (== injection order)
  std::uint32_t replica = 0;
  std::uint32_t a = 0;  // kind-specific payload, see LifecycleEvent
  std::uint32_t b = 0;
};

/// Cycle-accounting categories. Together they tile each replica's
/// [0, makespan] timeline exactly (asserted by finalize()). Declared in
/// canonical (lexicographic name) order, so a category's value indexes
/// kCategories.
enum class Category : std::uint8_t {
  kChunkedPrefill,  // partial prompt chunk
  kDecode,          // decode group pass
  kDrain,           // trailing idle until run end
  kHostSync,        // PCIe egress sync
  kKvMigrate,       // migrated-KV ingest DMA
  kKvStall,         // idle with queued, unadmittable work
  kKvSwap,          // cache block DMA to/from host
  kPrefill,         // whole-prompt chunk
  kRecompute,       // post-preempt rebuild
  kSchedulerIdle,   // idle, no work
};

/// Every category's export name, indexed by Category — the exporters'
/// iteration order, so metric line sets are stable across runs.
inline constexpr const char* kCategories[] = {
    "chunked-prefill", "decode",   "drain",     "host-sync",
    "kv-migrate",      "kv-stall", "kv-swap",   "prefill",
    "recompute",       "scheduler-idle",
};
inline constexpr std::size_t kNumCategories = std::size(kCategories);
static_assert(static_cast<std::size_t>(Category::kSchedulerIdle) + 1 ==
              kNumCategories);

constexpr const char* category_name(Category c) {
  return kCategories[static_cast<std::size_t>(c)];
}

/// One run's observability state. Construct with the run's replica pool
/// width and clock, attach via FleetSim::run(&obs), then export.
/// Single-use: finalize() runs once, after which the event log and
/// breakdowns are frozen.
class Observer {
 public:
  Observer(std::uint32_t replicas, double frequency_hz);

  std::uint32_t replicas() const {
    return static_cast<std::uint32_t>(per_replica_.size());
  }
  double frequency_hz() const { return frequency_hz_; }

  /// Tags each replica with its role name ("prefill"/"decode"/...), one
  /// per replica. FleetSim::run calls this on disaggregated fleets; the
  /// trace's process names and scale/drain instants then carry the role
  /// and the Prometheus scale counters grow a role label, so exports say
  /// WHICH tier a scale event moved. Never called on symmetric fleets —
  /// their export bytes stay identical to pre-role builds.
  void set_role_names(std::vector<std::string> names);

  // ---- Recording hooks (engine room only; all O(1) bookkeeping) ----
  void record(LifecycleEvent kind, sim::Cycles at, std::uint32_t request,
              std::uint32_t replica, std::uint32_t a = 0, std::uint32_t b = 0);
  /// Attributes [begin, end) of `replica`'s timeline to `cat`.
  void add_span(std::uint32_t replica, Category cat, sim::Cycles begin,
                sim::Cycles end);
  /// The replica's scheduler parks on its work signal; the span is closed
  /// by end_wait() — or, if the wake never comes, by finalize() as drain.
  void begin_wait(std::uint32_t replica, Category cat, sim::Cycles at);
  void end_wait(std::uint32_t replica, sim::Cycles at);
  /// The replica's scheduler loop exited; [at, makespan] becomes drain.
  void mark_exit(std::uint32_t replica, sim::Cycles at);
  /// End-of-run KV gauges (detail::teardown feeds these).
  void set_kv_stats(std::uint32_t replica, std::uint64_t capacity_blocks,
                    std::uint64_t peak_used_blocks,
                    std::uint32_t block_tokens);

  /// Closes open waits and post-exit tails as drain, asserts the tiling
  /// identity — per replica, the category totals sum to `makespan`
  /// exactly — builds the breakdown() maps, and stable-sorts the event log
  /// by `at`: the engine room records an iteration's chunk events ahead of
  /// their instant, and a migrated request's re-admission carries its
  /// first admission's stamp, so recording order is not time order. Ties
  /// keep recording order. Throws std::logic_error on violation or double
  /// finalize.
  void finalize(sim::Cycles makespan);
  bool finalized() const { return finalized_; }
  sim::Cycles makespan() const { return makespan_; }

  // ---- Inspection (tests and the host-layer breakdown exposure) ----
  const std::vector<ObservedEvent>& events() const { return events_; }
  /// Category name → cycles for one replica, keyed by every category that
  /// any span touched (a zero-width one included, at 0 cycles); untouched
  /// categories are omitted here and emitted explicitly by the exporters.
  /// Requires finalize().
  const std::map<std::string, sim::Cycles>& breakdown(
      std::uint32_t replica) const;

  // ---- Exporters (byte-stable; require finalize()) ----
  /// Chrome/Perfetto trace-event JSON: one process track per replica
  /// carrying the cycle-accounting spans, one async span per request with
  /// lifecycle instants, and instant events for preempt/scale/drain
  /// decisions. Timestamps are raw cycles (1 trace-µs == 1 cycle).
  void write_chrome_trace(std::ostream& os) const;
  /// Prometheus text exposition: counters (admissions, rejections,
  /// preemptions, tokens, scale events), gauges (KV block capacity/peak),
  /// per-replica-per-category cycle counters, and TTFT / e2e / queue-wait
  /// histograms over fixed millisecond bucket bounds.
  void write_prometheus(std::ostream& os) const;

 private:
  /// One cycle-accounting span; zero-width spans are counted in `seen`
  /// but not kept (they carry no cycles and the trace skips them).
  struct Span {
    sim::Cycles begin = 0;
    sim::Cycles end = 0;
    Category category = Category::kDrain;
  };
  struct PerReplica {
    std::array<sim::Cycles, kNumCategories> totals{};
    std::array<bool, kNumCategories> seen{};
    std::vector<Span> spans;  // recording order (chronological)
    std::map<std::string, sim::Cycles> breakdown;  // built by finalize()
    bool waiting = false;
    sim::Cycles wait_start = 0;
    Category wait_category = Category::kSchedulerIdle;
    bool exited = false;
    sim::Cycles exit_at = 0;
    std::uint64_t kv_capacity_blocks = 0;
    std::uint64_t kv_peak_used_blocks = 0;
    std::uint32_t kv_block_tokens = 0;

    void add(Category cat, sim::Cycles begin, sim::Cycles end);
  };

  void require_finalized(const char* what) const;
  /// Integer microseconds of a cycle count at the run clock (exact integer
  /// arithmetic — the exporters' only unit conversion).
  std::uint64_t cycles_to_us(sim::Cycles c) const;

  double frequency_hz_;
  std::uint64_t frequency_hz_int_;
  std::vector<PerReplica> per_replica_;
  std::vector<std::string> role_names_;  // empty unless disaggregated
  std::vector<ObservedEvent> events_;
  bool finalized_ = false;
  sim::Cycles makespan_ = 0;
};

/// Writes the finalized observer's exports to files; an empty path skips
/// that exporter. Throws std::runtime_error when a file cannot be written.
void write_exports(const Observer& observer, const std::string& trace_path,
                   const std::string& metrics_path);

}  // namespace looplynx::serve
