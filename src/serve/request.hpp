// One in-flight serving request: its [prefill : decode] shape, lifecycle
// timestamps (all in accelerator cycles) and the per-iteration slot the
// continuous-batching scheduler fills when it steps the request.
//
// Lifecycle: Queued -> Running -> Finished, or Queued -> Rejected when
// admission control drops it. The request is passive data: its replica's
// scheduler loop advances it once per iteration it is batched in, and
// `done` wakes a closed-loop client when it retires.
//
// Preemption (PreemptPolicy::kRecomputeYoungest) keeps the request Running
// but frees its KV block list and folds the decode tokens it had produced
// back into the prefill phase: `recompute_decoded` extends the prefill
// target so chunked prefill re-runs positions [0, prefill + decoded) —
// rebuilding the dropped KV — before decoding resumes. Tokens the host
// already saw are never re-emitted.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "serve/kv_block.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/slot_map.hpp"
#include "workload/scenario.hpp"

namespace looplynx::serve {

namespace detail {
struct Replica;
}  // namespace detail

/// Intrusive-list hook channels in Request. A request can be linked on one
/// list per channel at a time; membership is part of the scheduler's state
/// machine, not a container copy.
inline constexpr int kReadyChannel = 0;  // ready / deferred (exclusive)
inline constexpr int kAgeChannel = 1;    // all admitted, ascending id

enum class RequestState : std::uint8_t {
  kQueued,    // waiting for admission (KV blocks + in-flight budget)
  kRunning,   // admitted; participates in scheduler iterations
  kFinished,  // all decode tokens produced
  kRejected,  // dropped by admission control (queue full / oversized)
};

/// Which ReadyQueue class list a request is currently linked on (kReadyNone
/// when it is unlinked or sitting on an iteration's deferred/lone list).
inline constexpr std::uint8_t kReadyNone = 0;
inline constexpr std::uint8_t kReadyDecode = 1;   // prefilled()
inline constexpr std::uint8_t kReadyStarted = 2;  // mid-prefill prompt
inline constexpr std::uint8_t kReadyFresh = 3;    // prompt not yet started

struct Request {
  Request(sim::Engine& engine, std::uint32_t id_, workload::Scenario shape_)
      : shape(std::move(shape_)), id(id_), done(engine) {}
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  // Layout note: the scheduler's select() walk visits every runnable
  // request per iteration and reads only the fields below up to (and
  // including) shape.prefill — they are declared first so the whole
  // predicate fits in the leading cache line of the object. Colder
  // bookkeeping follows.

  /// Intrusive doubly-linked hooks, one pair per channel (kReadyChannel,
  /// kAgeChannel). Null when unlinked on that channel.
  Request* link_prev[2] = {nullptr, nullptr};
  Request* link_next[2] = {nullptr, nullptr};

  // ---- Progress ----
  std::uint32_t prompt_done = 0;  // prefill cursor: prompt tokens processed
  std::uint32_t decoded = 0;      // decode steps completed (host-visible)
  /// Decode tokens folded back into the prefill phase by the last
  /// preemption: their KV was dropped, so the prefill target stretches to
  /// shape.prefill + recompute_decoded and chunked prefill rebuilds it.
  std::uint32_t recompute_decoded = 0;
  /// Prompt tokens granted this turn (a prefill chunk); 0 == decode step.
  /// Filled by the scheduler before the member steps.
  std::uint32_t step_tokens = 0;
  /// Global ready-FIFO position, assigned by ReadyQueue::push_back. The
  /// class lists stay sorted by it, which is how their interleaving
  /// reproduces the legacy single ready list byte for byte (see ReadyQueue).
  std::uint64_t ready_stamp = 0;
  /// Request shape; Scenario leads with its prefill/decode integers so
  /// prefilled()/finished() stay inside the hot line (the name string and
  /// segment map behind them are cold).
  workload::Scenario shape;

  // ---- Per-iteration slot, filled by the scheduler before the step ----
  sim::Cycles step_offset = 0;  // pipeline turn within the iteration
  sim::Cycles step_cycles = 0;  // pipeline occupancy of this step

  // ---- Emission state (engine cycles) ----
  sim::Cycles first_token = 0;  // final prompt chunk egress (TTFT reference)
  sim::Cycles last_token = 0;     // previous host-visible token (jitter base)
  sim::Cycles max_token_gap = 0;  // worst inter-token gap observed

  std::uint32_t id = 0;
  /// Scheduler scratch: index into the iteration's batch vector while KV is
  /// being secured (-1 outside ensure_kv_blocks).
  std::int32_t batch_pos = -1;
  std::uint32_t prefill_chunks = 0;  // prefill steps taken (1 == unchunked)
  RequestState state = RequestState::kQueued;
  bool emitted_token = false;  // last_token is valid
  bool recovering = false;     // preempted and not yet re-prefilled
  /// Scheduler scratch: this member's KV is secured for the iteration, so
  /// it is no longer a preemption candidate for later members.
  bool secured = false;
  /// ReadyQueue class list this request is linked on (kReadyNone when not
  /// on the ready queue). Maintained by ReadyQueue push/unlink/refile.
  std::uint8_t ready_class = kReadyNone;

  /// Live replica count when the balancer routed this request (1 for
  /// single-replica runs; under autoscaling the live set is the index
  /// prefix, so the serving replica's index is always < this).
  std::uint32_t live_at_route = 1;

  // ---- Lifecycle timestamps (engine cycles) ----
  sim::Cycles arrival = 0;
  sim::Cycles admitted = 0;  // popped from the queue, KV reserved
  sim::Cycles completed = 0;

  KvBlockList kv;  // grown-on-demand KV block holdings

  // ---- Content-addressed prefix cache (ServingConfig::prefix_cache) ----
  /// References this request holds on shared cache blocks; empty when the
  /// cache is off or missed. Every mutation goes through PrefixCache
  /// (acquire/commit/release) so refcounts cannot drift. `kv` above covers
  /// only positions >= cache.owned_tokens.
  CacheBinding cache;
  /// Admission-time hit size (prefill tokens skipped), kept after the
  /// binding is released so RequestRecord can report it. A preemption
  /// forfeits the hit (the re-prefill runs privately) but the admission
  /// figure stands — it is what admission actually saved.
  std::uint32_t cached_prefix = 0;
  std::uint32_t preempt_count = 0;  // times this request was preempted

  /// Prompt tokens the prefill phase must push before decoding (re)starts:
  /// the prompt itself plus any decode KV a preemption dropped.
  std::uint32_t prefill_target() const {
    return shape.prefill + recompute_decoded;
  }
  /// True once the whole prefill target has been pushed (possibly across
  /// several chunked-prefill iterations); only then does the request
  /// decode.
  bool prefilled() const { return prompt_done >= prefill_target(); }
  /// Prompt tokens still to push — what the scheduler chunks.
  std::uint32_t prompt_remaining() const {
    return prefill_target() - prompt_done;
  }

  /// KV length already cached; a continuation chunk resumes from here.
  /// During a post-preemption re-prefill the already-emitted decode tokens
  /// are part of `prompt_done`, not double-counted via `decoded`.
  std::uint32_t kv_len() const {
    return prompt_done + decoded - recompute_decoded;
  }
  bool finished() const { return prefilled() && decoded >= shape.decode; }

  // ---- Disaggregated fleets (FleetConfig::roles) ----
  /// The replica whose arena slot this request occupies (== where the
  /// balancer routed it). Fixed for life: whoever retires the request
  /// erases through owner->pool, however many replicas it visited.
  detail::Replica* owner = nullptr;
  /// The replica currently scheduling this request. Equals `owner` until a
  /// KV migration or work steal re-homes it.
  detail::Replica* home = nullptr;
  /// KV migrated to a decode replica after the prompt's last chunk. At
  /// most once per request — a preemption on the decode side recomputes
  /// locally rather than shipping KV again.
  bool migrated = false;
  /// Stolen from a neighbor's admission queue while still Queued (work
  /// stealing); at most once — a stolen request is never re-stolen.
  bool stolen = false;

  sim::Signal done;  // completion/rejection broadcast (closed-loop clients)

  // ---- Flat-state arena plumbing (Replica::pool) ----
  /// This request's own slot in the replica's arena; whoever retires the
  /// request (see replica.cpp's release protocol) erases through it.
  util::SlotHandle self;
};

/// Intrusive doubly-linked list over Request::link_prev/link_next[Channel].
/// push_back/unlink/splice_back are O(1) and allocation-free; traversal is
/// insertion order, which the scheduler keeps equal to the legacy vector
/// order so selection is byte-identical.
template <int Channel>
struct RequestList {
  Request* head = nullptr;
  Request* tail = nullptr;

  bool empty() const { return head == nullptr; }

  void push_back(Request* r) {
    assert(r->link_prev[Channel] == nullptr &&
           r->link_next[Channel] == nullptr && r != head);
    r->link_prev[Channel] = tail;
    r->link_next[Channel] = nullptr;
    if (tail != nullptr) {
      tail->link_next[Channel] = r;
    } else {
      head = r;
    }
    tail = r;
  }

  void unlink(Request* r) {
    Request* p = r->link_prev[Channel];
    Request* n = r->link_next[Channel];
    if (p != nullptr) {
      p->link_next[Channel] = n;
    } else {
      assert(head == r);
      head = n;
    }
    if (n != nullptr) {
      n->link_prev[Channel] = p;
    } else {
      assert(tail == r);
      tail = p;
    }
    r->link_prev[Channel] = nullptr;
    r->link_next[Channel] = nullptr;
  }

  /// Inserts `r` immediately after `pos` (nullptr == at the head). O(1).
  void insert_after(Request* pos, Request* r) {
    assert(r->link_prev[Channel] == nullptr &&
           r->link_next[Channel] == nullptr && r != head);
    if (pos == nullptr) {
      r->link_next[Channel] = head;
      if (head != nullptr) {
        head->link_prev[Channel] = r;
      } else {
        tail = r;
      }
      head = r;
    } else {
      r->link_prev[Channel] = pos;
      r->link_next[Channel] = pos->link_next[Channel];
      if (pos->link_next[Channel] != nullptr) {
        pos->link_next[Channel]->link_prev[Channel] = r;
      } else {
        tail = r;
      }
      pos->link_next[Channel] = r;
    }
  }

  /// Moves every node of `other` to the back of this list, preserving
  /// order. O(1).
  void splice_back(RequestList& other) {
    if (other.head == nullptr) return;
    if (tail != nullptr) {
      tail->link_next[Channel] = other.head;
      other.head->link_prev[Channel] = tail;
      tail = other.tail;
    } else {
      head = other.head;
      tail = other.tail;
    }
    other.head = nullptr;
    other.tail = nullptr;
  }

  void clear_links() {
    Request* r = head;
    while (r != nullptr) {
      Request* n = r->link_next[Channel];
      r->link_prev[Channel] = nullptr;
      r->link_next[Channel] = nullptr;
      r = n;
    }
    head = nullptr;
    tail = nullptr;
  }
};

/// The scheduler's ready pool, pre-sorted by selection class: prefilled
/// members (decode steps), mid-prefill prompts, and fresh prompts each live
/// on their own FIFO list, so Scheduler::select walks exactly the members
/// it selects — no predicate skips over the (often long) prefix of waiting
/// prompts, which made selection O(ready size) per iteration.
///
/// Equivalence with the legacy single ready list: push_back stamps each
/// request with a strictly increasing global sequence number, so every
/// class list is sorted by stamp, and the stamp order across lists IS the
/// single-list order. A class predicate over the single list visits members
/// in stamp order — exactly a walk of that class's list here. The one way a
/// linked member's class can change in place is preemption (prompt_done
/// drops to 0 while it waits); refile() moves it to its new class list at
/// its stamp position, which is precisely the position it kept in the
/// single list. Class is otherwise stable while linked: prompt_done and
/// recompute_decoded only advance while a member is unlinked (selected into
/// a batch, or parked on a deferred list).
struct ReadyQueue {
  RequestList<kReadyChannel> decodes;  // prefilled(), FIFO by stamp
  RequestList<kReadyChannel> started;  // 0 < prompt_done < target, by stamp
  RequestList<kReadyChannel> fresh;    // prompt_done == 0, FIFO by stamp
  std::uint64_t next_stamp = 0;

  bool empty() const {
    return decodes.empty() && started.empty() && fresh.empty();
  }

  static std::uint8_t class_of(const Request& r) {
    if (r.prefilled()) return kReadyDecode;
    return r.prompt_done > 0 ? kReadyStarted : kReadyFresh;
  }

  RequestList<kReadyChannel>& list(std::uint8_t cls) {
    switch (cls) {
      case kReadyDecode:
        return decodes;
      case kReadyStarted:
        return started;
      default:
        assert(cls == kReadyFresh);
        return fresh;
    }
  }

  /// Appends `r` to the back of its class list — the legacy "push to the
  /// back of runnable", with the stamp recording the global position.
  void push_back(Request* r) {
    r->ready_stamp = ++next_stamp;
    r->ready_class = class_of(*r);
    list(r->ready_class).push_back(r);
  }

  void unlink(Request* r) {
    assert(r->ready_class != kReadyNone);
    list(r->ready_class).unlink(r);
    r->ready_class = kReadyNone;
  }

  /// Re-files a linked member whose class changed in place (preemption).
  /// The stamp-ordered insert lands it exactly where the legacy single
  /// list kept it. O(distance from the destination tail) — preemption
  /// victims are young, so the walk is short, and preemptions are rare.
  void refile(Request* r) {
    const std::uint8_t cls = class_of(*r);
    if (cls == r->ready_class) return;
    list(r->ready_class).unlink(r);
    RequestList<kReadyChannel>& dst = list(cls);
    Request* pos = dst.tail;
    while (pos != nullptr && pos->ready_stamp > r->ready_stamp) {
      pos = pos->link_prev[kReadyChannel];
    }
    dst.insert_after(pos, r);
    r->ready_class = cls;
  }
};

}  // namespace looplynx::serve
