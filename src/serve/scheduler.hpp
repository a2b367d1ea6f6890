// Iteration-level continuous-batching scheduler (the vLLM scheduling model
// adapted to a single time-shared LoopLynx pipeline).
//
// Every iteration the scheduler picks a batch of token-steps from the
// admitted (runnable) requests, bounded by max_batch members and, under
// kChunkedMixed, by a per-iteration *token budget* (max_tokens_per_iter):
// a decode step costs one budget token, a prefill chunk costs as many as
// it pushes. Batch members occupy the pipeline back to back within the
// iteration, and the per-token host synchronization (PCIe turnaround) is
// paid once per iteration instead of once per token — that amortization
// is the throughput win of batching on this architecture.
//
// Policies:
//  - kPrefillPriority: new requests prefill before queued decodes run, and
//    a prompt always runs whole. Minimizes TTFT and drains the admission
//    queue fast, at the cost of decode-latency jitter when a long prompt
//    lands mid-stream.
//  - kDecodePriority: in-flight decodes go first; whole-prompt prefills
//    fill leftover batch slots. Smooths per-token latency for running
//    streams, at the cost of TTFT under load.
//  - kChunkedMixed: decodes go first, then the remaining token budget is
//    spent on prefill *chunks* — a long prompt is split across iterations
//    (Request::prompt_done is the cursor) so it co-schedules with running
//    decodes instead of stalling them for a whole prompt. Partially
//    prefilled prompts outrank fresh ones, so the head prompt finishes
//    before the next starts (chunks do not round-robin across prompts).
//    Requires a nonzero max_tokens_per_iter to actually chunk; with
//    budget 0 it degenerates to decode-priority with whole prompts. Like
//    decode priority it trades TTFT for smooth inter-token latency: when
//    running decode streams fill max_batch or the budget, waiting prompts
//    stall, so size max_batch above the expected concurrent-stream count.
//
// Invariants:
//  - select() is a pure function of (config, runnable order, request
//    progress): no randomness, no clock reads — the determinism the
//    byte-identical sweep gate and the fleet's routing reproducibility
//    both build on.
//  - No starvation by construction: within each class FIFO order is
//    preserved. The whole-prompt policies take no token budget
//    (FleetConfig::validate rejects one), so a prompt is never blocked by
//    its size; under kChunkedMixed the head prompt takes every chunk the
//    budget leaves until it finishes.
//  - Livelock-freedom of preemption (PreemptPolicy::kRecomputeYoungest)
//    additionally requires the scheduler loop's rules — age-ordered
//    decode-only eviction, re-prefills wait, admissions pause while a
//    victim recovers (serve/replica.cpp) — on top of these ordering
//    guarantees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/preempt.hpp"
#include "serve/request.hpp"
#include "sim/engine.hpp"

namespace looplynx::serve {

enum class BatchPolicy : std::uint8_t {
  kPrefillPriority,
  kDecodePriority,
  kChunkedMixed,
};

/// CLI-facing policy names ("prefill" | "decode" | "chunked"), shared by
/// the bench and example surfaces so their flags cannot drift. Throws
/// std::invalid_argument on an unknown name.
BatchPolicy parse_batch_policy(const std::string& name);
const char* batch_policy_name(BatchPolicy policy);

/// Default --chunk-tokens for the CLI surfaces: kChunkedMixed cannot chunk
/// without a budget, so it gets a useful one; the whole-prompt policies
/// stay unbounded (the pre-chunking behavior).
inline std::uint32_t default_chunk_tokens(BatchPolicy policy) {
  return policy == BatchPolicy::kChunkedMixed ? 64 : 0;
}

struct SchedulerConfig {
  std::uint32_t max_batch = 8;      // token-steps per iteration
  /// Token budget per iteration under kChunkedMixed: decode == 1 token,
  /// prefill chunk == its token count. 0 == unbounded (whole prompts, pure
  /// step-count limit). The whole-prompt policies never split a prompt,
  /// so FleetConfig::validate requires 0 for them: a budget there could
  /// only cap batch members.
  std::uint32_t max_tokens_per_iter = 0;
  std::uint32_t max_in_flight = 64; // admitted requests resident at once
  std::uint32_t queue_capacity = 256;  // admission queue bound (shedding)
  BatchPolicy policy = BatchPolicy::kPrefillPriority;
  /// KV pressure response: kNone = whole-footprint reservation at
  /// admission (no mid-flight eviction, the conservative default);
  /// kRecomputeYoungest = prompt-only admission with scheduler-driven
  /// preempt-and-recompute when decode growth drains the block pool.
  PreemptPolicy preempt = PreemptPolicy::kNone;
};

/// One selected token-step: a decode (prompt_tokens == 0) or a prefill
/// chunk of prompt_tokens starting at the request's prefill cursor.
struct ScheduledStep {
  Request* request = nullptr;
  std::uint32_t prompt_tokens = 0;

  bool is_prefill() const { return prompt_tokens > 0; }
};

/// What one scheduler iteration did — the audit trail the interleaving
/// tests and utilization metrics read.
struct IterationRecord {
  sim::Cycles start = 0;
  sim::Cycles span = 0;  // KV swap/migrate DMA + pipeline occupancy + sync
  std::uint32_t prefills = 0;       // prefill-chunk members
  std::uint32_t decodes = 0;
  std::uint32_t prompt_tokens = 0;  // prompt tokens pushed this iteration

  std::uint32_t batch_size() const { return prefills + decodes; }
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config) : config_(config) {}

  const SchedulerConfig& config() const { return config_; }

  /// Selects this iteration's batch from the class-indexed ready pool
  /// (admitted requests not currently mid-step) into `batch`, which is
  /// cleared first and reused across iterations so steady-state selection
  /// never allocates. Honors the policy, max_batch and (kChunkedMixed)
  /// the token budget. Selected requests are unlinked from `ready`;
  /// relative FIFO order within each class is preserved. Each selection
  /// pass walks only its own class list, so the cost is O(batch), not
  /// O(ready size).
  void select(ReadyQueue& ready, std::vector<ScheduledStep>& batch) const;

  /// Folds `count` finished iterations shaped like `record` (a decode
  /// run books many at once) into the aggregate counters. The hot path
  /// does not keep per-iteration records — a million-request sweep runs
  /// hundreds of thousands of iterations, and the only downstream
  /// consumers are the count and the mean batch size.
  void record(const IterationRecord& record, std::uint64_t count = 1) {
    iteration_count_ += count;
    batch_members_ += count * record.batch_size();
  }
  std::uint64_t iteration_count() const { return iteration_count_; }

  double mean_batch_size() const;

 private:
  SchedulerConfig config_;
  std::uint64_t iteration_count_ = 0;
  std::uint64_t batch_members_ = 0;  // sum of batch_size() over iterations
};

}  // namespace looplynx::serve
