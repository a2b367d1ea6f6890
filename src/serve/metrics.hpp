// Fleet-level serving metrics: what the load benches sweep and the tests
// assert on. All latencies are reported in milliseconds of accelerator
// wall-clock (cycles / frequency). Every latency series is held as an
// exact util::ValueCounts store and read by ValueCounts::summary: the
// cycle-domain ones (TTFT, e2e, queue wait, inter-token gap) through
// detail::cycle_summary_ms, per-token latency keyed by the bits of its
// non-negative millisecond value. Each gives the same bits a sort of
// every per-sample millisecond value would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/preempt.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace looplynx::serve {

/// Per-request outcome, kept when ServingConfig::keep_request_records is
/// set (the golden digests and the invariant harness read them). Ordered
/// by request id == injection order.
struct RequestRecord {
  std::uint32_t id = 0;
  /// Index of the fleet replica that served this request (0 for
  /// single-replica runs; the LoadBalancer's routing decision otherwise).
  std::uint32_t replica = 0;
  std::uint32_t prefill_tokens = 0;
  std::uint32_t decode_tokens = 0;
  /// Scheduler iterations the prompt took (1 == unchunked prefill).
  std::uint32_t prefill_chunks = 0;
  /// Times the scheduler preempted this request (KV blocks dropped and the
  /// sequence re-run as prefill); 0 under PreemptPolicy::kNone.
  std::uint32_t preemptions = 0;
  /// Prompt tokens admission skipped via the content-addressed prefix
  /// cache (ServingConfig::prefix_cache); 0 with the cache off or on a
  /// clean miss.
  std::uint32_t cached_prefix_tokens = 0;
  /// Live replica count when the balancer routed this request (1 for
  /// single-replica runs, the fleet width for static fleets). Under
  /// symmetric autoscaling the live set is the index prefix [0, live), so
  /// `replica < live_replicas` always — pinned by the invariant harness.
  /// On a disaggregated fleet this sums every tier's live prefix, and the
  /// per-replica inequality no longer holds (a request can finish on a
  /// high-index decode replica while low-index prefill slots are dark).
  std::uint32_t live_replicas = 1;
  bool rejected = false;
  /// Request's KV blocks were shipped to a decode-role replica when its
  /// prompt finished (disaggregated fleets only). `replica` above records
  /// where the request *finished*, so migrated records always carry a
  /// decode-role replica id — pinned by the invariant harness.
  bool migrated = false;
  /// Request was handed to an idle neighbor by work stealing while still
  /// queued (disaggregated fleets only).
  bool stolen = false;
  double queue_wait_ms = 0;
  double ttft_ms = 0;  // arrival -> prefill egress
  double e2e_ms = 0;   // arrival -> completion
  /// Worst gap between consecutive host-visible tokens of this request —
  /// the jitter a long prompt landing mid-stream inflicts on a decode.
  double max_token_gap_ms = 0;

  bool operator==(const RequestRecord&) const = default;
};

struct SloConfig {
  double ttft_ms = 500.0;   // time to first token
  double token_ms = 100.0;  // mean per-decode-token latency

  bool operator==(const SloConfig&) const = default;
};

struct FleetMetrics {
  // ---- Counts ----
  std::uint64_t offered = 0;    // requests injected by the traffic process
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // shed by admission control
  std::uint64_t decode_tokens = 0;  // produced across completed requests
  std::uint64_t total_tokens = 0;   // prefill + decode processed

  // ---- Rates (over the makespan) ----
  double duration_s = 0;
  double throughput_req_s = 0;
  double throughput_tok_s = 0;   // total tokens processed per second
  double decode_tok_s = 0;       // generated tokens per second
  /// Completed requests per second that met both SLOs — the metric that
  /// actually prices a fleet.
  double goodput_req_s = 0;
  /// Completed requests that met both SLOs (the goodput numerator): the
  /// makespan-independent form the autoscaling comparisons use, since an
  /// autoscaled run's makespan can trail a static run's by up to one
  /// evaluation interval.
  std::uint64_t slo_good = 0;
  SloConfig slo;

  // ---- Latency distributions (per completed request, ms) ----
  util::PercentileSummary ttft_ms;        // arrival -> prefill egress
  util::PercentileSummary token_ms;       // mean decode-token latency
  util::PercentileSummary e2e_ms;         // arrival -> completion
  util::PercentileSummary queue_wait_ms;  // arrival -> admission
  /// Gaps between consecutive host-visible tokens, pooled across all
  /// completed requests — the inter-token *jitter* distribution. Chunked
  /// prefill exists to bound its tail.
  util::PercentileSummary inter_token_gap_ms;

  // ---- Scheduler / resource occupancy ----
  std::uint64_t iterations = 0;
  double mean_batch_size = 0;
  /// Prefill chunk steps executed (== completed prompts when unchunked).
  std::uint64_t prefill_chunk_steps = 0;
  /// Completed requests whose prompt needed more than one chunk.
  std::uint64_t chunked_prompts = 0;
  /// Iterations where prompt work shared the pipeline with >= 1 running
  /// decode — every such iteration delays those decodes' tokens by the
  /// prompt span (they are host-visible only at batch egress).
  std::uint64_t decode_stall_iterations = 0;
  /// Total ms of prompt-work occupancy running decodes waited behind; the
  /// head-of-line blocking chunked prefill bounds per iteration.
  double decode_stall_ms = 0;
  std::uint32_t peak_in_flight = 0;  // most requests admitted at once
  std::size_t peak_queue_depth = 0;
  double busy_fraction = 0;       // pipeline-occupied cycles / makespan
  double kv_peak_occupancy = 0;   // peak KV blocks used / capacity
  /// KV allocations deferred by block pressure: admission attempts under
  /// both policies, plus on-demand decode/prefill grows under
  /// kRecomputeYoungest (each dry grow that triggers a preemption counts).
  std::uint64_t kv_stall_events = 0;
  /// Clamped KV over-releases — always a scheduler/accounting bug; 0 on a
  /// healthy fleet (the block manager clamps instead of wrapping).
  std::uint64_t kv_over_release_events = 0;
  /// KV blocks still allocated when the run drained — nonzero means a
  /// request finished without releasing its list (a leak the invariant
  /// harness pins at 0; frees must match allocs).
  std::uint64_t kv_blocks_in_use_at_end = 0;

  // ---- Paged KV + preemption (PreemptPolicy::kRecomputeYoungest) ----
  PreemptPolicy preempt = PreemptPolicy::kNone;
  std::uint32_t kv_block_tokens = 1;   // paging granularity this fleet ran
  std::uint32_t kv_capacity_blocks = 0;
  std::uint32_t kv_peak_used_blocks = 0;
  /// Peak internal fragmentation: allocated-but-uncommitted tokens in the
  /// tail block of every outstanding request (always 0 at block size 1).
  std::uint64_t kv_peak_frag_tokens = 0;
  std::uint64_t preemptions = 0;       // scheduler-driven KV evictions
  /// KV tokens dropped by preemptions — each re-runs as prefill work.
  std::uint64_t recompute_tokens = 0;
  /// Pipeline time those drops re-pay (StepCostModel::recompute_cycles).
  double recompute_ms = 0;

  // ---- Content-addressed prefix cache (ServingConfig::prefix_cache) ----
  bool prefix_cache = false;  // cache constructed for this run
  bool kv_swap = false;       // swap-to-host eviction tier enabled
  std::uint64_t cache_lookups = 0;        // admissions that consulted it
  std::uint64_t cache_lookup_tokens = 0;  // prompt tokens offered to lookup
  std::uint64_t cache_hit_requests = 0;   // admissions with >= 1 hit token
  std::uint64_t cache_hit_tokens = 0;     // prefill tokens skipped
  /// cache_hit_tokens / cache_lookup_tokens — the token-weighted hit rate
  /// (0 when the cache is off or nothing was offered).
  double cache_hit_rate = 0;
  /// Prefill pipeline cycles the hits skipped
  /// (StepCostModel::prefill_cycles over each hit prefix), and the same in
  /// milliseconds — the cache's direct saving.
  std::uint64_t saved_prefill_cycles = 0;
  double saved_prefill_ms = 0;
  std::uint64_t cache_insert_blocks = 0;   // blocks published to the cache
  std::uint64_t cache_evict_blocks = 0;    // cached-idle blocks discarded
  std::uint64_t cache_cow_events = 0;      // partial-tail copy-on-write hits
  std::uint64_t cache_dedup_blocks = 0;    // concurrent identical commits
  std::uint64_t cache_swap_out_blocks = 0; // evictions routed to host DRAM
  std::uint64_t cache_swap_in_blocks = 0;  // swapped blocks restored on hit
  double cache_swap_ms = 0;                // total DMA transfer time paid
  /// Cache-owned blocks still resident when the run drained (a gauge of
  /// retained reusable state, not a leak — drain() returns them all).
  std::uint64_t cache_blocks_at_end = 0;
  /// Prefill-class pipeline cycles actually executed (whole prompts,
  /// chunks and recompute re-runs) — the figure the cache shrinks; always
  /// populated so cache-on/off runs can be compared directly.
  std::uint64_t prefill_cycles = 0;

  // ---- Disaggregated prefill/decode (FleetConfig::roles) ----
  /// All zero on symmetric fleets (roles unset => no fabric, no migration).
  std::uint64_t kv_migrations = 0;        // prompts shipped prefill -> decode
  std::uint64_t kv_migrated_blocks = 0;   // KV blocks those shipments moved
  std::uint64_t kv_migrate_wire_bytes = 0;  // bytes x hops on the ring fabric
  double kv_migrate_ingest_ms = 0;  // receiver-side DMA-in time paid
  std::uint64_t work_steals = 0;          // queued requests handed to idle peers
  std::uint64_t steal_wire_bytes = 0;     // prompt-shipment bytes x hops
  /// Requests this replica received from / shipped to peers (migrations +
  /// steals, counted at delivery). Per-replica conservation becomes
  /// completed + rejected + handoffs_out == offered + handoffs_in, which
  /// reduces to the legacy identity on symmetric fleets (both 0);
  /// fleet-wide the two sums are equal — nothing is lost on the wire.
  std::uint64_t handoffs_in = 0;
  std::uint64_t handoffs_out = 0;

  /// Per-request outcomes; empty unless requested via the ServingConfig.
  std::vector<RequestRecord> requests;

  /// Two-column summary table for examples and reports.
  util::Table to_table(const std::string& title) const;

  /// Field-for-field equality, the request records included (doubles
  /// compare with ==) — what "two runs agree" means in the tests.
  bool operator==(const FleetMetrics&) const = default;
};

}  // namespace looplynx::serve
