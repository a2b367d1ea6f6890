#include "serve/replica.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "serve/observe.hpp"

// Arena release protocol. A Request occupies a recycled SlotMap slot, so
// every retirement path must erase exactly once, and only after nobody
// holds a pointer that will be dereferenced again:
//  - Reject paths (queue-full at arrival; pop-reject at admission):
//    reject_request releases the slot at once — no list or batch ever
//    held the request.
//  - Finished batch members: completed at batch egress, but released only
//    in scheduler_proc's requeue walk — the batch vector still holds the
//    pointer until that walk has read it.

namespace looplynx::serve::detail {

namespace {

/// Sheds `r` for good: records the drop (`reason` 0 = queue full at
/// arrival, 1 = oversized for the KV budget) and recycles its slot. No
/// list or batch holds `r`.
void reject_request(Replica& f, Request& r, std::uint32_t reason) {
  r.state = RequestState::kRejected;
  ++f.rejected;
  if (f.shared.observer != nullptr) {
    f.shared.observer->record(LifecycleEvent::kReject, f.engine.now(), r.id,
                              f.id, reason);
  }
  f.retire(r);
  r.owner->pool.erase(r.self);
}

/// Start s_j of iteration `j` (1-based) of `f`'s run. The members stay
/// as they were at s_1 until the run is applied, so a lone member's start
/// is priced from the step table; a batch's was walked at booking.
sim::Cycles run_iteration_start(const Replica& f, std::uint32_t j) {
  if (f.batch.size() > 1) return f.run.starts[j - 1];
  return f.run.start +
         f.costs.decode_run_cycles(f.batch.front().request->kv_len(), j - 1) +
         static_cast<sim::Cycles>(j - 1) * f.costs.host_sync_cycles();
}

/// Blocks iterations 2..j of `f`'s run take from the pool: iteration j
/// grows each member to kv_len + j tokens (paged admission only), and
/// iteration 1's blocks were granted before the run was booked.
std::uint32_t run_growth(const Replica& f, std::uint32_t j) {
  if (!f.paged_admission()) return 0;
  std::uint32_t grown = 0;
  for (const ScheduledStep& s : f.batch) {
    const Request& r = *s.request;
    const std::uint32_t want = f.kv.blocks_for(r.kv_len() + j);
    if (want > r.kv.blocks) grown += want - r.kv.blocks;
  }
  return grown;
}

/// Iterations of `f`'s run that have begun as of the event being run.
/// Stepped one wake per iteration, iteration j would begin at a wake due
/// at s_j and scheduled at s_{j-1}; the wake the run armed at s_1 stands
/// in for that wake's place among the events of s_{j-1}. So iteration j
/// has begun iff (s_j, s_{j-1}, run ticket) sorts before the current
/// event. Iteration 1 began at booking; the keys rise with j, so the last
/// begun iteration is found by bisection.
std::uint32_t booked_through(const Replica& f) {
  const sim::EventKey& now = f.engine.current();
  std::uint32_t lo = 1;
  std::uint32_t hi = f.run.close - 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    const sim::EventKey wake{run_iteration_start(f, mid),
                             run_iteration_start(f, mid - 1), f.run.ticket};
    if (wake < now) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// Something reached `f`: an arrival's enqueue, or a KV migration or a
/// steal landing. Cut rule: the iterations of a run in progress that have
/// begun (booked_through) stay booked; the next one becomes the closing
/// iteration and takes the ordinary path at its start, where the loop
/// admits and selects whatever the touch brought. Its wake is stamped with
/// the start of the iteration before it, the cycle a per-iteration wake
/// would have been scheduled at.
void cut_decode_run(Replica& f) {
  if (f.run.close == 0) return;
  const std::uint32_t booked = booked_through(f);
  if (booked + 1 == f.run.close) return;
  f.run.close = booked + 1;
  f.engine.arm(f.run_wake, run_iteration_start(f, booked + 1),
               run_iteration_start(f, booked));
}

}  // namespace

std::uint64_t free_kv_tokens(const Replica& f) {
  std::uint32_t free = f.kv.free_blocks();
  if (f.run.close != 0) free -= run_growth(f, booked_through(f));
  return static_cast<std::uint64_t>(free) * f.kv.block_tokens();
}

Request& Replica::make_request(workload::Scenario shape) {
  if (shape.total() > cfg.model.max_seq_len) {
    throw std::invalid_argument("traffic shape " + shape.name +
                                " exceeds the model context window");
  }
  auto [slot, r] = pool.emplace(shared.injected++, std::move(shape));
  r.self = slot;
  r.owner = this;
  r.live_at_route = shared.live_replicas;
  ++routed;
  if (shared.observer != nullptr) {
    shared.observer->record(LifecycleEvent::kRoute, engine.now(), r.id, id,
                            shared.live_replicas);
  }
  return r;
}

void Replica::retire(const Request& r) {
  finished.push_back({.id = r.id,
                      .replica = id,
                      .decode_tokens = r.decoded,
                      .prefill_chunks = r.prefill_chunks,
                      .preemptions = r.preempt_count,
                      .cached_prefix_tokens = r.cached_prefix,
                      .live_replicas = r.live_at_route,
                      .rejected = r.state == RequestState::kRejected,
                      .migrated = r.migrated,
                      .stolen = r.stolen,
                      .arrival = r.arrival,
                      .admitted = r.admitted,
                      .first_token = r.first_token,
                      .completed = r.completed,
                      .max_token_gap = r.max_token_gap});
}

void Replica::record_completion(Request& r) {
  r.state = RequestState::kFinished;
  r.completed = engine.now();
  // Cache references go back first (the blocks stay cached-idle for later
  // requests); only the private list returns blocks to the pool.
  if (cache) cache->release(r.cache);
  kv.release_all(r.kv);
  age.unlink(&r);
  --active;
  --shared.active;
  ++completed;
  total_tokens += r.decoded;
  if (shared.observer != nullptr) {
    shared.observer->record(LifecycleEvent::kFinish, engine.now(), r.id, id,
                            r.decoded, r.preempt_count);
  }
  retire(r);
}

void enqueue_request_event(void* replica, void* request) {
  Replica& f = *static_cast<Replica*>(replica);
  Request& r = *static_cast<Request*>(request);
  cut_decode_run(f);
  r.arrival = f.engine.now();
  if (f.shared.observer != nullptr) {
    f.shared.observer->record(LifecycleEvent::kArrive, r.arrival, r.id, f.id,
                              r.shape.prefill, r.shape.decode);
  }
  if (!f.queue.push(&r)) {
    reject_request(f, r, /*reason=*/0);
    return;
  }
  f.work.set();
}

namespace {

/// Coverage of `tokens` absolute KV positions expressed against the
/// request's *private* block list: the cache-owned prefix covers positions
/// [0, cache.owned_tokens), so the private list only needs what lies
/// beyond it. With the cache off (or a clean miss) owned_tokens is 0 and
/// this is the identity — every legacy call site goes through here
/// unchanged.
std::uint32_t private_tokens(const Request& r, std::uint32_t tokens) {
  return tokens > r.cache.owned_tokens ? tokens - r.cache.owned_tokens : 0;
}

/// try_grow with cache pressure relief: when the pool cannot supply the
/// missing blocks, cached-idle blocks are reclaimed first (cost-aware,
/// swap tier permitting), then the one grow attempt runs — a single stall
/// count either way, so kv_stall_events keeps its meaning with the cache
/// on. Byte-identical to a bare try_grow when no cache exists.
bool cache_aware_grow(Replica& f, KvBlockList& list, std::uint32_t tokens) {
  if (f.cache) {
    const std::uint32_t want = f.kv.blocks_for(tokens);
    const std::uint32_t missing = want > list.blocks ? want - list.blocks : 0;
    if (missing > f.kv.free_blocks()) {
      f.cache->reclaim(missing - f.kv.free_blocks());
    }
  }
  return f.kv.try_grow(list, tokens);
}

/// Admits queued requests in FIFO order while the KV manager and the
/// in-flight budget have room. A head request that can never fit is
/// rejected so it cannot wedge the queue. Under PreemptPolicy::kNone the
/// whole lifetime footprint (prefill + decode) is reserved up front — no
/// mid-flight eviction can ever be needed; under the recompute policies
/// only the prompt's blocks gate admission and decode blocks grow on
/// demand. With the prefix cache on, the prompt's hash chain is looked up
/// first and the private reservation shrinks by the cache-owned prefix —
/// a hit turns those tokens' prefill into reference counts.
void admit_from_queue(Replica& f) {
  while (!f.queue.empty() && f.active < f.cfg.scheduler.max_in_flight) {
    Request* r = f.queue.front();
    if (!f.kv.can_ever_fit(r->shape.total())) {
      f.queue.pop();
      reject_request(f, *r, /*reason=*/1);
      continue;
    }
    const std::uint32_t admit_tokens =
        f.paged_admission() ? r->shape.prefill : r->shape.total();
    if (r->migrated) {
      // Migrated-in decode phase: the KV landed whole, so admission must
      // cover everything already cached (prompt + any pre-migration decode
      // tokens), and the prefix-cache lookup is skipped — the prompt is
      // fully prefilled and an acquire would reset its cursor. The ingest
      // DMA was already deposited in the kv-migrate ledger at delivery.
      const std::uint32_t need =
          f.paged_admission() ? r->kv_len() : r->shape.total();
      if (!cache_aware_grow(f, r->kv, need)) {
        break;  // KV backpressure: retry when a completion frees blocks
      }
    } else if (f.cache) {
      const PrefixHit hit = f.cache->acquire(
          r->shape, r->id, r->shape.prefill, r->prefill_target(), r->cache);
      if (!cache_aware_grow(f, r->kv, private_tokens(*r, admit_tokens))) {
        // KV backpressure: hand the references back — a queued request
        // holds no cache state, so the hit blocks stay reclaimable while
        // it waits.
        f.cache->release(r->cache);
        break;
      }
      ++f.cache_lookups;
      f.cache_lookup_tokens += r->shape.prefill;
      r->cached_prefix = hit.cached_tokens;
      // The prefill cursor starts past the cached prefix: those positions'
      // KV already exists, so chunked prefill only runs the private tail.
      r->prompt_done = hit.cached_tokens;
      if (hit.cached_tokens > 0) {
        ++f.cache_hit_requests;
        f.cache_hit_tokens += hit.cached_tokens;
        f.cache_saved_prefill_cycles +=
            f.costs.prefill_cycles(hit.cached_tokens);
      }
      if (f.shared.observer != nullptr) {
        f.shared.observer->record(hit.cached_tokens > 0
                                      ? LifecycleEvent::kCacheHit
                                      : LifecycleEvent::kCacheMiss,
                                  f.engine.now(), r->id, f.id,
                                  hit.cached_tokens, hit.chain_blocks);
      }
    } else if (!f.kv.try_grow(r->kv, admit_tokens)) {
      break;  // KV backpressure
    }
    f.queue.pop();
    // A migrated request was admitted once already (queue-wait is the time
    // before its FIRST admission); everything else stamps now.
    if (!r->migrated) r->admitted = f.engine.now();
    r->state = RequestState::kRunning;
    ++f.active;
    ++f.shared.active;
    f.peak_active = std::max(f.peak_active, f.active);
    f.shared.peak_active = std::max(f.shared.peak_active, f.shared.active);
    if (f.shared.observer != nullptr) {
      f.shared.observer->record(LifecycleEvent::kAdmit, r->admitted, r->id,
                                f.id, f.active);
    }
    f.ready.push_back(r);
    if (r->migrated || r->stolen) {
      // Hand-off arrivals can land out of id order; the preemption age
      // scans rely on the list staying id-sorted, so insert in place.
      Request* pos = f.age.tail;
      while (pos != nullptr && pos->id > r->id) {
        pos = pos->link_prev[kAgeChannel];
      }
      f.age.insert_after(pos, r);
    } else {
      // FIFO admission over monotone ids keeps the age list id-sorted.
      f.age.push_back(r);
    }
  }
}

/// Evicts `v`'s KV (recompute-style): every block goes back to the pool
/// and the decode tokens it had produced fold into the prefill target, so
/// chunked prefill re-runs [0, prompt + decoded) when `v` is next
/// scheduled. Tokens the host already saw are not re-emitted.
void preempt_victim(Replica& f, Request& v) {
  const std::uint32_t dropped = v.kv_len();
  // The victim forfeits its cache references along with its private
  // blocks: the shared blocks stay cached-idle (a later request — or the
  // victim's own recompute, via the commit dedup path — re-shares them),
  // but the re-prefill itself runs privately over the whole [0, dropped)
  // span, which is exactly what `dropped` prices.
  if (f.cache) f.cache->release(v.cache);
  f.kv.release_all(v.kv);
  ++f.preemptions;
  ++v.preempt_count;
  f.recompute_tokens += dropped;
  f.recompute_cycles += f.costs.recompute_cycles(dropped);
  v.recompute_decoded = v.decoded;
  v.prompt_done = 0;
  if (!v.recovering) {
    v.recovering = true;
    ++f.recovering;
  }
  if (f.shared.observer != nullptr) {
    f.shared.observer->record(LifecycleEvent::kPreempt, f.engine.now(), v.id,
                              f.id, dropped, v.preempt_count);
  }
  // A victim waiting on the ready queue flipped class in place (its prompt
  // cursor reset, so a prefilled decode or mid-chunk prompt became a fresh
  // prompt); re-file it at its stamp position so the class lists keep
  // mirroring the legacy single ready list, where it simply kept its spot.
  // Victims on a deferred list or inside the batch (ready_class == none)
  // are classified when they are next pushed.
  if (v.ready_class != kReadyNone) f.ready.refile(&v);
}

/// KV tokens a step must have covered before it runs: a decode appends one
/// token at kv_len, a prefill chunk its token count at the cursor.
std::uint32_t step_need(const ScheduledStep& s) {
  return s.is_prefill() ? s.request->prompt_done + s.prompt_tokens
                        : s.request->kv_len() + 1;
}

/// Victim preference among *eligible* candidates. Eligibility (a block
/// holder strictly younger than the starved request) is the caller's check
/// and identical under both recompute policies — the livelock-freedom
/// argument rests on it; only the choice differs. kRecomputeYoungest takes
/// the youngest (highest id); kRecomputeCostAware takes the candidate
/// whose live KV is cheapest to rebuild (StepCostModel::recompute_cycles),
/// tie-broken youngest so equal-cost ties reproduce the legacy choice.
bool better_victim(const Replica& f, const Request& c, const Request& best) {
  if (f.cfg.scheduler.preempt == PreemptPolicy::kRecomputeCostAware) {
    const sim::Cycles cc = f.costs.recompute_cycles(c.kv_len());
    const sim::Cycles bc = f.costs.recompute_cycles(best.kv_len());
    if (cc != bc) return cc < bc;
  }
  return c.id > best.id;
}

/// Preferred victim among eligible block holders: strictly younger than
/// `than_id`, not yet secured this iteration, and actually holding blocks.
/// One walk of the id-sorted age list covers every legacy pool (runnable,
/// deferred, unsecured later batch members) — all admitted unfinished
/// requests are on it, and `secured` excludes exactly the members the
/// legacy scans skipped. Both policies pick a unique victim (max id, or
/// strict-min rebuild cost with max-id ties), so scan structure cannot
/// change the choice.
Request* find_victim(const Replica& f, std::uint32_t than_id) {
  if (f.cfg.scheduler.preempt == PreemptPolicy::kRecomputeCostAware) {
    Request* best = nullptr;
    for (Request* c = f.age.head; c != nullptr;
         c = c->link_next[kAgeChannel]) {
      if (c->id > than_id && c->kv.blocks > 0 && !c->secured &&
          (best == nullptr || better_victim(f, *c, *best))) {
        best = c;
      }
    }
    return best;
  }
  // kRecomputeYoungest: the list is ascending in id, so the first eligible
  // holder walking back from the tail is the youngest — usually first try.
  for (Request* c = f.age.tail; c != nullptr; c = c->link_prev[kAgeChannel]) {
    if (c->id <= than_id) break;  // everything before it is older still
    if (c->kv.blocks > 0 && !c->secured) return c;
  }
  return nullptr;
}

/// Grants every batch member the KV blocks its step writes into. Only
/// *decode* growth may preempt: a dry decode evicts the youngest
/// block-holding victim that is *strictly younger* (higher id) than
/// itself, taken from the runnable pool, the already-deferred requests
/// (they keep their blocks while sitting out), or not-yet-secured later
/// batch members — never from members already secured this iteration.
/// Prefill steps (which under paged admission only ever need growth when
/// rebuilding a preempted request's KV) wait for blocks freed by
/// completions instead: if re-prefills could evict, every eviction would
/// mint a new re-prefill that evicts in turn, and the fleet would grind
/// prefill-on-prefill forever without decoding (a livelock the
/// prefill-priority policy hits immediately). With eviction age-ordered
/// and decode-only, the oldest unfinished request can never lose work and
/// always drains to completion — recompute counts stay bounded by
/// construction. Members that cannot be satisfied land in `deferred` (NOT
/// back in runnable) so the caller can re-select schedulable work this
/// iteration without re-picking them.
///
/// Removals (a deferred member, a batch-member victim) null their entry and
/// one order-preserving compaction pass runs at the end — the legacy
/// mid-loop erase(begin() + i) was quadratic in the batch size. Position
/// bookkeeping rides on the requests themselves: `batch_pos` locates a
/// victim's entry, `secured` marks members whose blocks are already pinned
/// for this iteration (never victims). Both are scrubbed before returning.
void ensure_kv_blocks(Replica& f, std::vector<ScheduledStep>& batch,
                      RequestList<kReadyChannel>& deferred) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].request->batch_pos = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].request == nullptr) continue;  // victimized earlier member
    Request* r = batch[i].request;
    const bool is_prefill = batch[i].is_prefill();
    const std::uint32_t need = step_need(batch[i]);
    bool ok = true;
    while (!cache_aware_grow(f, r->kv, private_tokens(*r, need))) {
      Request* victim = is_prefill ? nullptr : find_victim(f, r->id);
      if (victim == nullptr) {
        // Every block is pinned by older or already-secured requests;
        // they keep progressing and release at completion, so r just
        // sits this iteration out.
        deferred.push_back(r);
        batch[i].request = nullptr;
        r->batch_pos = -1;
        ok = false;
        break;
      }
      preempt_victim(f, *victim);
      if (victim->batch_pos >= 0) {
        batch[victim->batch_pos].request = nullptr;
        victim->batch_pos = -1;
        f.ready.push_back(victim);
      }
    }
    if (ok) r->secured = true;
  }
  std::size_t keep = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].request == nullptr) continue;
    batch[i].request->secured = false;
    batch[i].request->batch_pos = -1;
    batch[keep++] = batch[i];
  }
  batch.resize(keep);
}

// ---- Disaggregation (FleetConfig::roles; every call site is gated on
// f.disagg != nullptr, so symmetric fleets never reach this code) ----

/// Least-loaded *live* decode replica that could ever hold `r`'s full
/// footprint; ties keep the lowest index (scan order). Null when no decode
/// replica can take it — the prefill replica then just decodes it locally.
/// A replica the per-tier autoscaler has deactivated is skipped even
/// mid-drain: new hand-offs would keep a draining replica occupied
/// forever (hand-offs already in flight still land and are served).
Replica* pick_migration_target(Replica& f, const Request& r) {
  Replica* best = nullptr;
  for (Replica* d : f.disagg->replicas) {
    if (d->role != ReplicaRole::kDecode || !d->live) continue;
    if (!d->kv.can_ever_fit(r.shape.total())) continue;
    if (best == nullptr || d->outstanding() < best->outstanding()) best = d;
  }
  return best;
}

/// Detaches `r` from the prefill replica and launches the KV transfer. The
/// request leaves this replica entirely: cache references return (release
/// resets the binding, so the decode side starts clean), the private
/// blocks go back to the pool — the fabric ships a byte-for-byte copy, not
/// block identities — and the admitted-set counters drop until the decode
/// replica re-admits it at delivery; from then on `dst`'s scheduler steps
/// it.
void begin_migration(Replica& f, Request& r, Replica& dst) {
  const std::uint32_t blocks = f.kv.blocks_for(r.kv_len());
  if (f.cache) f.cache->release(r.cache);
  f.kv.release_all(r.kv);
  f.age.unlink(&r);
  r.state = RequestState::kQueued;
  r.migrated = true;
  --f.active;
  --f.shared.active;
  ++f.migrations_out;
  f.migrated_blocks_out += blocks;
  f.engine.spawn(migrate_proc(f, dst, r, blocks));
}

/// One steal attempt by an idle replica about to park: takes the youngest
/// queued request from the deepest backlog among prefill/general peers
/// (threshold two — never empties a victim that could start the work as
/// soon as its current batch drains; ties keep the lowest index). At most
/// one steal in flight per thief, and a request is stolen at most once.
/// A replica the autoscaler has deactivated never initiates a steal —
/// pulling fresh work into a draining replica would stall its drain.
void maybe_steal(Replica& f) {
  if (!f.live || f.steal_inflight || !f.queue.empty()) return;
  Replica* victim = nullptr;
  for (Replica* v : f.disagg->replicas) {
    if (v == &f || v->role == ReplicaRole::kDecode) continue;
    if (v->queue.depth() < 2) continue;
    Request* b = v->queue.back();
    if (b->state != RequestState::kQueued || b->migrated || b->stolen) {
      continue;
    }
    if (!f.kv.can_ever_fit(b->shape.total())) continue;
    if (victim == nullptr || v->queue.depth() > victim->queue.depth()) {
      victim = v;
    }
  }
  if (victim == nullptr) return;
  Request* r = victim->queue.back();
  victim->queue.pop_back();
  r->stolen = true;
  ++victim->steals_out;
  f.steal_inflight = true;
  f.engine.spawn(steal_proc(f, *victim, *r));
}

/// Books the selected batch's decode-only iterations as one run starting
/// now, arms the scheduler's wake at the run's closing iteration and
/// returns true; false (nothing booked) when the run would hold no
/// iteration. Booking applies nothing: apply_decode_run does, at the wake.
///
/// Eligibility. The replica has no observer, no autoscaler and no prefix
/// cache: the observer records every iteration at its own instant, the
/// autoscaler reads queue depths between touches, and cache_aware_grow
/// may evict. The selected batch is decode-only and is the whole ready
/// pool; the queue is empty; nothing routed here still waits on its
/// enqueue callback (outstanding() == active); no preempted request is
/// recovering; no migrated KV waits to be ingested. Until a touch
/// (cut_decode_run), every iteration then re-selects this same batch in
/// the same order, and what other replicas and the router read of this one
/// holds still: outstanding() and can_ever_fit do not move, the queue
/// stays empty (never a steal victim), and free_kv_tokens answers for the
/// iterations begun. On a prefill-role replica a member decoding locally
/// found no migration target, and none appears without an autoscaler.
///
/// Run rule. An iteration is booked while it finishes no member and its
/// KV growth fits `free_blocks()` (iteration 1's was granted by
/// ensure_kv_blocks; a failed try_grow would count a stall, so none is
/// attempted). The first iteration that breaks a rule closes the run and
/// is left to the ordinary path. A lone member's close is its finishing
/// iteration; a batch's is found by walking its iterations, whose starts
/// the run keeps.
bool book_decode_run(Replica& f) {
  if (f.shared.observer != nullptr || f.shared.ttft_window != nullptr ||
      f.cache) {
    return false;
  }
  if (!f.ready.empty() || !f.queue.empty() || f.recovering != 0 ||
      f.outstanding() != f.active || f.pending_migrate_cycles != 0) {
    return false;
  }
  for (const ScheduledStep& s : f.batch) {
    if (s.is_prefill()) return false;
  }
  DecodeRun& run = f.run;
  run.start = f.engine.now();
  if (f.batch.size() == 1) {
    // Iteration j decodes token decoded + j. A lone member is the only
    // request holding KV here, and admission checked that its whole
    // footprint fits the pool, so its growth never runs dry.
    const Request& r = *f.batch.front().request;
    run.close = r.shape.decode - r.decoded;
  } else {
    run.starts.clear();
    sim::Cycles at = run.start;
    for (std::uint32_t j = 1;; ++j) {
      run.starts.push_back(at);
      f.decode_positions.clear();
      bool closes = run_growth(f, j) > f.kv.free_blocks();
      for (const ScheduledStep& s : f.batch) {
        const Request& r = *s.request;
        if (r.decoded + j >= r.shape.decode) closes = true;
        f.decode_positions.push_back(
            std::min(r.kv_len() + j - 1, f.costs.max_positions() - 1));
      }
      if (closes) {
        run.close = j;
        break;
      }
      at += f.costs.decode_batch_cycles(f.decode_positions) +
            f.costs.host_sync_cycles();
    }
  }
  if (run.close <= 1) {
    run.close = 0;
    return false;
  }
  run.ticket = f.engine.arm(f.run_wake, run_iteration_start(f, run.close),
                            run_iteration_start(f, run.close - 1));
  return true;
}

/// Applies iterations [1, close) of the run that just reached its wake,
/// as the ordinary path would have one iteration at a time: KV growth
/// (paged), `decoded`, the inter-token gap stamped at each egress,
/// `max_token_gap`, `last_token`, `busy_cycles` and the iteration records.
/// A lone member's KV grows in one step that keeps the per-token peaks.
void apply_decode_run(Replica& f) {
  DecodeRun& run = f.run;
  const std::uint32_t k = run.close - 1;
  const bool paged = f.paged_admission();
  const sim::Cycles sync = f.costs.host_sync_cycles();
  const auto emit = [&f](Request& r, sim::Cycles egress) {
    if (r.emitted_token) {
      const sim::Cycles gap = egress - r.last_token;
      r.max_token_gap = std::max(r.max_token_gap, gap);
      f.gap_cycles.add(gap);
    }
    r.emitted_token = true;
    r.last_token = egress;
  };
  sim::Cycles egress = run.start;
  if (f.batch.size() == 1) {
    Request& r = *f.batch.front().request;
    const std::uint32_t kv0 = r.kv_len();
    const std::uint32_t last = f.costs.max_positions() - 1;
    if (paged) f.kv.grow_stepwise(r.kv, kv0 + k);
    for (std::uint32_t i = 0; i < k; ++i) {
      egress += f.costs.step_cycles(std::min(kv0 + i, last)) + sync;
      emit(r, egress);
    }
    r.decoded += k;
  } else {
    for (std::uint32_t j = 1; j <= k; ++j) {
      egress = run.starts[j];
      for (const ScheduledStep& s : f.batch) {
        Request& r = *s.request;
        if (paged && j > 1) f.kv.try_grow(r.kv, r.kv_len() + 1);
        ++r.decoded;
        emit(r, egress);
      }
    }
  }
  IterationRecord rec;
  rec.decodes = static_cast<std::uint32_t>(f.batch.size());
  f.sched.record(rec, k);
  f.busy_cycles += egress - run.start;
  run.close = 0;
}

}  // namespace

sim::Task migrate_proc(Replica& src, Replica& dst, Request& r,
                       std::uint32_t blocks) {
  net::RingFabric& fabric = *src.disagg->fabric;
  const std::size_t n = fabric.num_nodes();
  const std::size_t hops = (dst.id + n - src.id) % n;
  const std::uint64_t block_bytes = src.kv.block_bytes();
  co_await fabric.transfer(src.id, dst.id, block_bytes, blocks);
  src.migrate_wire_bytes += block_bytes * blocks * hops;
  cut_decode_run(dst);
  // Delivery: re-home, deposit the landing DMA in dst's kv-migrate ledger
  // (drained into the breakdown at its next iteration), and enqueue past
  // the capacity bound — the request cleared admission control once and
  // must not be re-exposed to load shedding.
  ++src.handoffs_out;
  ++dst.handoffs_in;
  dst.pending_migrate_cycles += dst.costs.kv_ingest_cycles(block_bytes *
                                                           blocks);
  if (dst.shared.observer != nullptr) {
    dst.shared.observer->record(LifecycleEvent::kKvMigrate, dst.engine.now(),
                                r.id, dst.id, blocks, src.id);
  }
  dst.queue.force_push(&r);
  dst.work.set();
}

sim::Task steal_proc(Replica& thief, Replica& victim, Request& r) {
  net::RingFabric& fabric = *thief.disagg->fabric;
  const std::size_t n = fabric.num_nodes();
  const std::size_t hops = (thief.id + n - victim.id) % n;
  const auto bytes = static_cast<std::uint64_t>(r.shape.prefill) * 4;  // ids
  co_await fabric.transfer(victim.id, thief.id, bytes, 1);
  thief.steal_wire_bytes += bytes * hops;
  cut_decode_run(thief);
  ++victim.handoffs_out;
  ++thief.handoffs_in;
  thief.steal_inflight = false;
  if (thief.shared.observer != nullptr) {
    thief.shared.observer->record(LifecycleEvent::kSteal, thief.engine.now(),
                                  r.id, thief.id, victim.id);
  }
  thief.queue.force_push(&r);
  thief.work.set();
}

sim::Task scheduler_proc(Replica& f) {
  Observer* const obs = f.shared.observer;
  while (true) {
    // While a preempted request is still rebuilding its KV, hold new
    // admissions: a newcomer would compete for the very blocks the victim
    // needs back, and (being youngest) immediately become the next victim
    // — admission-pause is what keeps recompute counts bounded.
    if (f.recovering == 0) admit_from_queue(f);
    f.sched.select(f.ready, f.batch);
    if (f.paged_admission()) {
      // Deferred members sit out this iteration; re-select until the
      // batch has schedulable work or the ready pool is exhausted (each
      // pass moves at least one request to deferred, so this terminates).
      // A block-starved re-prefill must not shadow runnable decodes — the
      // decodes are what free the blocks it is waiting for.
      RequestList<kReadyChannel> deferred;
      ensure_kv_blocks(f, f.batch, deferred);
      while (f.batch.empty() && !f.ready.empty()) {
        f.sched.select(f.ready, f.batch);
        ensure_kv_blocks(f, f.batch, deferred);
      }
      // Deferred members rejoin at the back in deferral order (classified
      // fresh at push time — a deferred member may have been victimized
      // while sitting out), exactly the legacy splice-to-back.
      for (Request* r = deferred.head; r != nullptr;) {
        Request* next = r->link_next[kReadyChannel];
        r->link_prev[kReadyChannel] = nullptr;
        r->link_next[kReadyChannel] = nullptr;
        f.ready.push_back(r);
        r = next;
      }
      deferred.head = nullptr;
      deferred.tail = nullptr;
      if (f.batch.empty() && !f.ready.empty()) {
        // Everything runnable is block-starved prefill: every block is
        // parked on half-rebuilt prompts and no decode exists to evict or
        // finish. Grant the oldest waiter eviction rights regardless of
        // step kind or age — it drains to completion and unwedges the
        // fleet (this cannot cascade: it fires only when nothing else is
        // schedulable, and always advances the oldest request).
        // Every admitted unfinished request is runnable here, so the age
        // list's head IS the oldest runnable — no scan.
        Request* oldest = f.age.head;
        f.ready.unlink(oldest);
        ReadyQueue lone;
        lone.push_back(oldest);
        f.sched.select(lone, f.batch);
        const std::uint32_t need = step_need(f.batch.front());
        while (!cache_aware_grow(f, oldest->kv,
                                 private_tokens(*oldest, need))) {
          // Everyone else runnable is strictly younger than oldest, so
          // the age-ordered scan doubles as an "anyone but me" scan here.
          Request* victim = find_victim(f, oldest->id);
          // A missing victim would mean oldest is the sole block holder,
          // but then its grow would have succeeded (admission checked
          // can_ever_fit on the whole footprint).
          if (victim == nullptr) break;
          preempt_victim(f, *victim);
        }
      }
    }
    if (f.batch.empty()) {
      if (f.shared.arrivals_done() && f.outstanding() == 0 &&
          f.disagg == nullptr) {
        // Nothing routed here is left. outstanding() also counts a request
        // routed at this very cycle whose enqueue callback has not fired
        // yet; the replica parks for it below instead of exiting.
        // Disaggregated replicas never take this exit: a hand-off can
        // still land as long as any peer holds work (a prompt finishing
        // later will pick this decode replica as its target). They park
        // below instead — when the whole fleet drains no event wakes them
        // again, the engine runs out of work, and the parked coroutines
        // are destroyed un-resumed with the run frame (their open wait
        // becomes drain in the observer).
        break;
      }
      if (f.disagg != nullptr) maybe_steal(f);
      if (obs != nullptr) {
        // Classified at sleep time: a non-empty queue means admitted work
        // is blocked on KV blocks (kv-stall), an empty one that there is
        // nothing to do yet (scheduler-idle). A wait still open at run end
        // is reclassified as drain by Observer::finalize().
        obs->begin_wait(f.id,
                        f.queue.empty() ? Category::kSchedulerIdle
                                        : Category::kKvStall,
                        f.engine.now());
      }
      co_await f.work.wait();
      f.work.reset();
      if (obs != nullptr) obs->end_wait(f.id, f.engine.now());
      continue;
    }

    if (book_decode_run(f)) {
      // Close rule: the closing iteration takes the ordinary path. The
      // batch goes back to the ready pool in order, and the run's wake at
      // the closing iteration's start (stamped with the start of the
      // iteration before it, where a per-iteration wake would have been
      // scheduled) applies the run and lets the loop admit, select and
      // secure it there — so its egress wake is scheduled at the same
      // instant as when every iteration takes its own wake. Same-cycle
      // events of different replicas then keep their relative order,
      // which the fleet's concurrent peak (peak_in_flight) and
      // join-shortest-queue routing both read.
      for (const ScheduledStep& s : f.batch) f.ready.push_back(s.request);
      co_await f.engine.wait(f.run_wake);
      apply_decode_run(f);
      continue;
    }

    IterationRecord rec;
    rec.start = f.engine.now();

    // Decode members share one weight-stream pass (each streamed block is
    // applied to every member's vector), so they occupy the pipeline as a
    // group; prefill chunks run their prompt tokens back to back, each
    // chunk resuming at its request's cursor against the KV already
    // cached. The priority class also goes first through the pipeline
    // within the iteration.
    f.prefills.clear();
    f.decodes.clear();
    f.decode_positions.clear();
    for (const ScheduledStep& s : f.batch) {
      if (s.is_prefill()) {
        f.prefills.push_back(s);
        rec.prompt_tokens += s.prompt_tokens;
      } else {
        f.decodes.push_back(s.request);
        f.decode_positions.push_back(
            std::min(s.request->kv_len(), f.costs.max_positions() - 1));
      }
    }
    const sim::Cycles decode_group =
        f.costs.decode_batch_cycles(f.decode_positions);

    // The placements below and the egress sync tail tile the iteration's
    // spans over [rec.start, rec.start + egress] exactly. Each takes the
    // next `span` cycles of the pipeline and, when observed, records them
    // under `cat`. A zero span places nothing: an empty span would still
    // mark its category seen in the observer's breakdown.
    sim::Cycles offset = 0;
    const auto place = [&](Category cat, sim::Cycles span) {
      if (span == 0) return;
      if (obs != nullptr) {
        obs->add_span(f.id, cat, rec.start + offset,
                      rec.start + offset + span);
      }
      offset += span;
    };
    // Swap transfers accrued since the last iteration (reclaim swap-outs,
    // admission swap-ins) occupy the pipeline before compute — the DMA
    // engine owns the HBM channels for the duration — and land in their
    // own `kv-swap` category, keeping the tiling identity exact. Zero
    // whenever the swap tier never fired.
    if (f.cache) place(Category::kKvSwap, f.cache->take_pending_swap_cycles());
    if (f.disagg != nullptr) {
      // Migrated-KV ingest DMA deposited since the last iteration occupies
      // the pipeline before compute, exactly like the swap ledger above,
      // in its own `kv-migrate` category.
      f.migrate_ingest_cycles += f.pending_migrate_cycles;
      place(Category::kKvMigrate, std::exchange(f.pending_migrate_cycles, 0));
    }
    sim::Cycles prefill_span = 0;
    const bool decodes_first =
        f.cfg.scheduler.policy != BatchPolicy::kPrefillPriority;
    auto place_decodes = [&] {
      for (Request* r : f.decodes) {
        r->step_offset = offset;
        r->step_cycles = decode_group;
        r->step_tokens = 0;
      }
      place(Category::kDecode, decode_group);
    };
    auto place_prefills = [&] {
      for (const ScheduledStep& s : f.prefills) {
        Request* r = s.request;
        r->step_offset = offset;
        r->step_cycles =
            f.costs.prefill_chunk_cycles(r->prompt_done, s.prompt_tokens);
        r->step_tokens = s.prompt_tokens;
        // Classified from the request's pre-execution state: a recovery
        // re-prefill is recompute; a chunk covering the whole prompt at
        // once is plain prefill; anything else is chunked prefill.
        const Category cat =
            r->recovering ? Category::kRecompute
            : (r->prompt_done == 0 &&
               s.prompt_tokens == r->prompt_remaining())
                ? Category::kPrefill
                : Category::kChunkedPrefill;
        place(cat, r->step_cycles);
        prefill_span += r->step_cycles;
        f.prefill_cycles_executed += r->step_cycles;
      }
    };
    if (decodes_first) {
      place_decodes();
      place_prefills();
    } else {
      place_prefills();
      place_decodes();
    }

    rec.prefills = static_cast<std::uint32_t>(f.prefills.size());
    rec.decodes = static_cast<std::uint32_t>(f.decodes.size());
    // Prompt work in an iteration delays every co-scheduled decode's token
    // by its full span (tokens are host-visible only at batch egress,
    // regardless of pipeline order) — the head-of-line blocking chunking
    // bounds to one chunk.
    if (!f.decodes.empty() && rec.prompt_tokens > 0) {
      ++f.decode_stall_iterations;
      f.decode_stall_cycles += prefill_span;
    }
    // Tokens become host-visible at batch egress + one PCIe sync.
    place(Category::kHostSync, f.costs.host_sync_cycles());
    const sim::Cycles egress = offset;
    // One engine wake per ordinary iteration: every member's step is
    // booked now, then the scheduler sleeps to egress. Batch order is
    // pipeline-slot order (prefill offsets are cumulative, decode members
    // share one slot), each step's records carry the instant its slot
    // ends, and Observer::finalize time-sorts the log. The prefix cache
    // orders its LRU by insertion tick, so committing before the slot
    // ends is indistinguishable from committing at it.
    for (const ScheduledStep& s : f.batch) {
      Request* r = s.request;
      if (r->step_tokens == 0) {
        ++r->decoded;
        continue;
      }
      // Prefill chunk: advance the cursor. A partial chunk leaves the
      // request in the prefill class; the final chunk emits token #1.
      const sim::Cycles at = rec.start + r->step_offset + r->step_cycles;
      if (obs != nullptr && r->recovering && r->prompt_done == 0) {
        obs->record(LifecycleEvent::kRecomputeStart, at, r->id, f.id,
                    r->prefill_target());
      }
      r->prompt_done += r->step_tokens;
      ++r->prefill_chunks;
      f.total_tokens += r->step_tokens;
      if (f.cache) {
        // Publish every newly completed full prompt block: ownership moves
        // from the private list to the cache (no pool effect), so later
        // requests with the same prefix admit straight onto it. Recovery
        // re-prefills publish too — the dedup path re-shares the blocks
        // the preemption walked away from.
        f.cache->commit(r->shape, r->id, r->prompt_done, r->shape.prefill,
                        r->kv, r->cache);
      }
      if (obs != nullptr) {
        obs->record(r->prefill_chunks == 1 ? LifecycleEvent::kFirstChunk
                                           : LifecycleEvent::kChunk,
                    at, r->id, f.id, r->step_tokens, r->prompt_done);
      }
      if (r->recovering && r->prefilled()) {
        // Post-preemption recompute done: the dropped KV is rebuilt and
        // admission of new competitors may resume.
        r->recovering = false;
        --f.recovering;
        if (obs != nullptr) {
          obs->record(LifecycleEvent::kRecomputeEnd, at, r->id, f.id,
                      r->prompt_done);
        }
      }
    }
    co_await f.engine.delay(egress);
    // Token emission at egress, member by member in batch order. A decode
    // step always emits a token. A final prefill chunk emits token #1 —
    // unless this was a post-preemption re-prefill of tokens the host has
    // already seen (emitted_token), which only rebuilds KV.
    const sim::Cycles now = f.engine.now();
    for (const ScheduledStep& s : f.batch) {
      Request* r = s.request;
      if (r->step_tokens == 0 || (r->prefilled() && !r->emitted_token)) {
        if (obs != nullptr) {
          obs->record(r->decoded == 0 ? LifecycleEvent::kFirstToken
                                      : LifecycleEvent::kDecode,
                      now, r->id, f.id, r->decoded);
        }
        if (r->decoded == 0) {
          r->first_token = now;
          if (f.shared.ttft_window != nullptr) {
            // Autoscaler SLO signal, fed at emission (not completion) so
            // the control loop sees the tail as it forms.
            f.shared.ttft_window->push(f.ms(now), f.ms(now - r->arrival));
          }
        }
        if (r->emitted_token) {
          const sim::Cycles gap = now - r->last_token;
          r->max_token_gap = std::max(r->max_token_gap, gap);
          f.gap_cycles.add(gap);
        }
        r->emitted_token = true;
        r->last_token = now;
      }
      if (r->finished()) {
        f.record_completion(*r);
        f.work.set();  // freed KV slots may unblock the queue head
      }
    }
    rec.span = now - rec.start;
    f.busy_cycles += rec.span;
    f.sched.record(rec);

    // Unfinished members rejoin the ready pool in batch order, keeping
    // the FIFO discipline deterministic. Finished members completed at
    // egress above; the scheduler — the last pointer holder — recycles
    // their slots here.
    for (const ScheduledStep& s : f.batch) {
      Request* r = s.request;
      if (r->state == RequestState::kRunning && !r->finished()) {
        if (f.disagg != nullptr && f.role == ReplicaRole::kPrefill &&
            r->prefilled() && !r->migrated) {
          // The prompt's last chunk just ran (token #1 — the TTFT stamp —
          // already went out at this iteration's egress): ship the KV to a
          // decode replica instead of decoding here. No viable target
          // means the prompt decodes locally, gracefully.
          Replica* dst = pick_migration_target(f, *r);
          if (dst != nullptr) {
            begin_migration(f, *r, *dst);
            continue;
          }
        }
        f.ready.push_back(r);
      } else {
        // Retired members recycle through the arena that allocated them —
        // under disaggregation the request may have finished replicas away
        // from its slot's owner.
        r->owner->pool.erase(r->self);
      }
    }
  }
  // Anything after the loop's last activity is drain: finalize() extends
  // [exit, makespan] — non-empty whenever another replica outlives this
  // one.
  if (obs != nullptr) obs->mark_exit(f.id, f.engine.now());
}

util::PercentileSummary cycle_summary_ms(const util::ValueCounts& cycles,
                                         const core::ArchConfig& arch) {
  return cycles.summary(
      [&arch](std::uint64_t c) { return arch.cycles_to_ms(c); });
}

void teardown(Replica& f) {
  if (f.shared.observer != nullptr) {
    f.shared.observer->set_kv_stats(f.id, f.kv.capacity_blocks(),
                                    f.kv.peak_used_blocks(),
                                    f.kv.block_tokens());
  }
  if (f.cache) {
    f.cache_blocks_at_end = f.cache->resident_blocks();
    // drain() returns every cache-owned resident block to the pool (and
    // throws if a request leaked a reference), so the used_blocks() that
    // summarize() reads afterwards keeps meaning "private blocks someone
    // forgot to release" — pinned at 0.
    f.cache->drain();
  }
  f.gap_cycles.compact();
}

FleetMetrics summarize(const std::vector<const Replica*>& group,
                       sim::Cycles makespan, std::uint32_t peak_in_flight,
                       bool records) {
  const Replica& front = *group.front();
  const core::ArchConfig& arch = front.cfg.arch;
  FleetMetrics m;
  util::ValueCounts ttft, token, e2e, queue_wait, gap;
  sim::Cycles busy = 0, decode_stall = 0, recompute = 0;
  double batch_members = 0;
  for (const Replica* r : group) {
    // One walk over the retirement log yields every per-request series and
    // counter. Each entry is priced by the replica that retired it (its
    // clock and its SLO).
    for (const RequestRecord& e : r->finished) {
      if (e.rejected) continue;
      ttft.add(e.first_token - e.arrival);
      e2e.add(e.completed - e.arrival);
      queue_wait.add(e.admitted - e.arrival);
      const double token_ms =
          e.decode_tokens > 0 ? r->ms(e.completed - e.first_token) /
                                    static_cast<double>(e.decode_tokens)
                              : 0.0;
      // Keyed by its bits: a cycle difference over `decode_tokens`, or
      // +0.0, is non-negative and finite, and such doubles order like their
      // bit patterns.
      assert(std::isfinite(token_ms) && !std::signbit(token_ms));
      token.add(std::bit_cast<std::uint64_t>(token_ms));
      if (r->ms(e.first_token - e.arrival) <= r->cfg.slo.ttft_ms &&
          token_ms <= r->cfg.slo.token_ms) {
        ++m.slo_good;
      }
      m.decode_tokens += e.decode_tokens;
      m.prefill_chunk_steps += e.prefill_chunks;
      if (e.prefill_chunks > 1) ++m.chunked_prompts;
    }
    if (records && r->cfg.keep_request_records) {
      m.requests.insert(m.requests.end(), r->finished.begin(),
                        r->finished.end());
    }
    gap.merge(r->gap_cycles);
    busy += r->busy_cycles;
    decode_stall += r->decode_stall_cycles;
    recompute += r->recompute_cycles;
    m.offered += r->routed;
    m.completed += r->completed;
    m.rejected += r->rejected;
    m.total_tokens += r->total_tokens;
    m.iterations += r->sched.iteration_count();
    // Pool through mean_batch_size() x iterations: dividing the product by
    // the same iteration count gives the scheduler's quotient back bit for
    // bit, so a one-replica group reports its scheduler's own mean.
    batch_members += r->sched.mean_batch_size() *
                     static_cast<double>(r->sched.iteration_count());
    m.decode_stall_iterations += r->decode_stall_iterations;
    m.peak_queue_depth = std::max(m.peak_queue_depth, r->queue.peak_depth());
    m.kv_peak_occupancy =
        std::max(m.kv_peak_occupancy, r->kv.peak_occupancy());
    m.kv_stall_events += r->kv.stall_events();
    m.kv_over_release_events += r->kv.over_release_events();
    m.kv_blocks_in_use_at_end += r->kv.used_blocks();
    m.kv_capacity_blocks += r->kv.capacity_blocks();
    m.kv_peak_used_blocks += r->kv.peak_used_blocks();
    m.kv_peak_frag_tokens += r->kv.peak_frag_tokens();
    m.preemptions += r->preemptions;
    m.recompute_tokens += r->recompute_tokens;
    m.prefill_cycles += r->prefill_cycles_executed;
    m.prefix_cache = m.prefix_cache || r->cfg.prefix_cache;
    m.kv_swap = m.kv_swap || r->cfg.kv_swap;
    m.cache_lookups += r->cache_lookups;
    m.cache_lookup_tokens += r->cache_lookup_tokens;
    m.cache_hit_requests += r->cache_hit_requests;
    m.cache_hit_tokens += r->cache_hit_tokens;
    m.saved_prefill_cycles += r->cache_saved_prefill_cycles;
    m.saved_prefill_ms += r->ms(r->cache_saved_prefill_cycles);
    m.cache_blocks_at_end += r->cache_blocks_at_end;
    if (r->cache) {
      m.cache_insert_blocks += r->cache->insert_blocks();
      m.cache_evict_blocks += r->cache->evict_blocks();
      m.cache_cow_events += r->cache->cow_events();
      m.cache_dedup_blocks += r->cache->dedup_blocks();
      m.cache_swap_out_blocks += r->cache->swap_out_blocks();
      m.cache_swap_in_blocks += r->cache->swap_in_blocks();
      m.cache_swap_ms += r->ms(r->cache->swap_cycles_total());
    }
    // Out-side counters only: counting both ends would double every
    // migration/steal in a group that holds both.
    m.kv_migrations += r->migrations_out;
    m.kv_migrated_blocks += r->migrated_blocks_out;
    m.kv_migrate_wire_bytes += r->migrate_wire_bytes;
    m.kv_migrate_ingest_ms += r->ms(r->migrate_ingest_cycles);
    m.work_steals += r->steals_out;
    m.steal_wire_bytes += r->steal_wire_bytes;
    m.handoffs_in += r->handoffs_in;
    m.handoffs_out += r->handoffs_out;
  }
  m.slo = front.cfg.slo;
  m.preempt = front.cfg.scheduler.preempt;
  m.kv_block_tokens = front.kv.block_tokens();
  m.peak_in_flight = peak_in_flight;
  const double duration_s =
      static_cast<double>(makespan) / arch.frequency_hz;
  m.duration_s = duration_s;
  if (duration_s > 0) {
    m.throughput_req_s = static_cast<double>(m.completed) / duration_s;
    m.decode_tok_s = static_cast<double>(m.decode_tokens) / duration_s;
    m.goodput_req_s = static_cast<double>(m.slo_good) / duration_s;
    m.busy_fraction =
        static_cast<double>(busy) /
        (static_cast<double>(makespan) * static_cast<double>(group.size()));
  }
  ttft.compact();
  token.compact();
  e2e.compact();
  queue_wait.compact();
  m.ttft_ms = cycle_summary_ms(ttft, arch);
  m.token_ms = token.summary(
      [](std::uint64_t bits) { return std::bit_cast<double>(bits); });
  m.e2e_ms = cycle_summary_ms(e2e, arch);
  m.queue_wait_ms = cycle_summary_ms(queue_wait, arch);
  m.inter_token_gap_ms = cycle_summary_ms(gap, arch);
  if (m.iterations > 0) {
    m.mean_batch_size = batch_members / static_cast<double>(m.iterations);
  }
  m.decode_stall_ms = arch.cycles_to_ms(decode_stall);
  m.recompute_ms = arch.cycles_to_ms(recompute);
  if (m.cache_lookup_tokens > 0) {
    m.cache_hit_rate = static_cast<double>(m.cache_hit_tokens) /
                       static_cast<double>(m.cache_lookup_tokens);
  }
  // The retirement logs are in completion order; records go out in
  // creation (== id == fleet-wide injection) order.
  std::sort(m.requests.begin(), m.requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  return m;
}

}  // namespace looplynx::serve::detail
