#include "serve/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace looplynx::serve {

BatchPolicy parse_batch_policy(const std::string& name) {
  if (name == "prefill") return BatchPolicy::kPrefillPriority;
  if (name == "decode") return BatchPolicy::kDecodePriority;
  if (name == "chunked") return BatchPolicy::kChunkedMixed;
  throw std::invalid_argument("unknown batch policy \"" + name +
                              "\" (expected prefill|decode|chunked)");
}

const char* batch_policy_name(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kPrefillPriority:
      return "prefill-priority";
    case BatchPolicy::kDecodePriority:
      return "decode-priority";
    case BatchPolicy::kChunkedMixed:
      return "chunked-mixed";
  }
  return "unknown";
}

PreemptPolicy parse_preempt_policy(const std::string& name) {
  if (name == "none") return PreemptPolicy::kNone;
  if (name == "recompute") return PreemptPolicy::kRecomputeYoungest;
  if (name == "cost-aware") return PreemptPolicy::kRecomputeCostAware;
  throw std::invalid_argument("unknown preempt policy \"" + name +
                              "\" (expected none|recompute|cost-aware)");
}

const char* preempt_policy_name(PreemptPolicy policy) {
  switch (policy) {
    case PreemptPolicy::kNone:
      return "none";
    case PreemptPolicy::kRecomputeYoungest:
      return "recompute-youngest";
    case PreemptPolicy::kRecomputeCostAware:
      return "recompute-cost-aware";
  }
  return "unknown";
}

void Scheduler::select(ReadyQueue& ready,
                       std::vector<ScheduledStep>& batch) const {
  batch.clear();

  const auto full = [&] { return batch.size() >= config_.max_batch; };

  if (config_.policy == BatchPolicy::kChunkedMixed) {
    std::uint32_t tokens_left =
        config_.max_tokens_per_iter == 0
            ? std::numeric_limits<std::uint32_t>::max()
            : config_.max_tokens_per_iter;
    // Decodes first, one budget token each; then prefill chunks split the
    // leftover budget. A chunk never exceeds the remaining budget, so a
    // long prompt spreads across iterations while decodes keep flowing
    // every iteration. Among prefills, *partially prefilled* prompts go
    // before fresh ones (FIFO within each subclass): a mid-chunk prompt
    // re-queued at the back of the ready pool would otherwise be overtaken
    // by younger prompts, interleaving chunks across all waiting prompts
    // and ballooning every TTFT toward the sum of all prefills — while
    // each mid-chunk prompt pins its full KV reservation the whole time.
    // The three passes are exactly ReadyQueue's class lists, so each walk
    // visits only members it can select. Selected members stay linked
    // until the single unlink pass below.
    for (Request* r = ready.decodes.head; r != nullptr;
         r = r->link_next[kReadyChannel]) {
      if (full() || tokens_left == 0) break;
      batch.push_back({r, 0});
      --tokens_left;
    }
    for (Request* r = ready.started.head; r != nullptr;
         r = r->link_next[kReadyChannel]) {
      if (full() || tokens_left == 0) break;
      const std::uint32_t chunk =
          std::min(tokens_left, r->prompt_remaining());
      batch.push_back({r, chunk});
      tokens_left -= chunk;
    }
    for (Request* r = ready.fresh.head; r != nullptr;
         r = r->link_next[kReadyChannel]) {
      if (full() || tokens_left == 0) break;
      const std::uint32_t chunk =
          std::min(tokens_left, r->prompt_remaining());
      batch.push_back({r, chunk});
      tokens_left -= chunk;
    }
  } else {
    // Priority class first, then the other class into the remaining
    // slots; prompts run whole and only max_batch bounds the members
    // (FleetConfig::validate rejects a token budget here). The prefill
    // class spans two lists (started + fresh); a stamp-ordered merge walk
    // visits them in the exact order the legacy single ready list
    // interleaved them.
    const auto decode_pass = [&] {
      for (Request* r = ready.decodes.head; r != nullptr && !full();
           r = r->link_next[kReadyChannel]) {
        batch.push_back({r, 0});
      }
    };
    const auto prefill_pass = [&] {
      Request* a = ready.started.head;
      Request* b = ready.fresh.head;
      while ((a != nullptr || b != nullptr) && !full()) {
        Request*& r = (b == nullptr ||
                       (a != nullptr && a->ready_stamp < b->ready_stamp))
                          ? a
                          : b;
        batch.push_back({r, r->prompt_remaining()});
        r = r->link_next[kReadyChannel];
      }
    };
    if (config_.policy == BatchPolicy::kPrefillPriority) {
      prefill_pass();
      decode_pass();
    } else {
      decode_pass();
      prefill_pass();
    }
  }

  for (const ScheduledStep& s : batch) ready.unlink(s.request);
}

double Scheduler::mean_batch_size() const {
  if (iteration_count_ == 0) return 0.0;
  // batch_members_ stays below 2^53, so the double conversion is exact and
  // the quotient is bit-identical to the legacy per-record accumulation.
  return static_cast<double>(batch_members_) /
         static_cast<double>(iteration_count_);
}

}  // namespace looplynx::serve
