#include "serve/replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "serve/observe.hpp"

// Arena release protocol. A Request occupies a recycled SlotMap slot, so
// every retirement path must erase exactly once, and only after nobody
// holds a pointer that will be dereferenced again:
//  - Reject paths (queue-full at arrival; pop-reject at admission):
//    reject_request releases the slot right after done.set() — signals
//    *schedule* waiters through the engine queue (never resume them
//    synchronously), so destroying the request there is safe, and no list
//    or batch ever held it.
//  - Finished batch members: completed at batch egress, but released only
//    in scheduler_proc's requeue walk — the batch vector still holds the
//    pointer until that walk has read it.

namespace looplynx::serve::detail {

namespace {

/// Sheds `r` for good: records the drop (`reason` 0 = queue full at
/// arrival, 1 = oversized for the KV budget), wakes a closed-loop client
/// waiting on it and recycles its slot. No list or batch holds `r`.
void reject_request(Replica& f, Request& r, std::uint32_t reason) {
  r.state = RequestState::kRejected;
  ++f.rejected;
  if (f.shared.observer != nullptr) {
    f.shared.observer->record(LifecycleEvent::kReject, f.engine.now(), r.id,
                              f.id, reason);
  }
  f.retire(r);
  r.done.set();
  r.owner->pool.erase(r.self);
}

}  // namespace

Request& Replica::make_request(workload::Scenario shape) {
  if (shape.total() > cfg.model.max_seq_len) {
    throw std::invalid_argument("traffic shape " + shape.name +
                                " exceeds the model context window");
  }
  auto [slot, r] = pool.emplace(engine, shared.injected++, std::move(shape));
  r.self = slot;
  r.owner = this;
  r.home = this;
  r.live_at_route = shared.live_replicas;
  ++routed;
  if (shared.observer != nullptr) {
    shared.observer->record(LifecycleEvent::kRoute, engine.now(), r.id, id,
                            shared.live_replicas);
  }
  return r;
}

void Replica::retire(const Request& r) {
  FinishedRequest fr;
  fr.id = r.id;
  fr.prefill_tokens = r.shape.prefill;
  fr.decoded = r.decoded;
  fr.prefill_chunks = r.prefill_chunks;
  fr.preempt_count = r.preempt_count;
  fr.cached_prefix = r.cached_prefix;
  fr.live_at_route = r.live_at_route;
  fr.rejected = r.state == RequestState::kRejected;
  fr.migrated = r.migrated;
  fr.stolen = r.stolen;
  fr.arrival = r.arrival;
  fr.admitted = r.admitted;
  fr.first_token = r.first_token;
  fr.completed = r.completed;
  fr.max_token_gap = r.max_token_gap;
  finished.push_back(fr);
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
  decode_tokens += r.decoded;
  total_tokens += r.decoded;
  prefill_chunk_steps += r.prefill_chunks;
  if (r.prefill_chunks > 1) ++chunked_prompts;
  const double ttft = ms(r.first_token - r.arrival);
  const double token =
      r.decoded > 0 ? ms(r.completed - r.first_token) /
                          static_cast<double>(r.decoded)
                    : 0.0;
  ttft_cycles.push_back(r.first_token - r.arrival);
  token_ms.push_back(token);
  e2e_cycles.push_back(r.completed - r.arrival);
  queue_wait_cycles.push_back(r.admitted - r.arrival);
  if (ttft <= cfg.slo.ttft_ms && token <= cfg.slo.token_ms) ++good;
  if (shared.observer != nullptr) {
    shared.observer->record(LifecycleEvent::kFinish, engine.now(), r.id, id,
                            r.decoded, r.preempt_count);
  }
  retire(r);
}

void enqueue_request_event(void* replica, void* request) {
  Replica& f = *static_cast<Replica*>(replica);
  Request& r = *static_cast<Request*>(request);
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

}  // namespace

sim::Task migrate_proc(Replica& src, Replica& dst, Request& r,
                       std::uint32_t blocks) {
  net::RingFabric& fabric = *src.disagg->fabric;
  const std::size_t n = fabric.num_nodes();
  const std::size_t hops = (dst.id + n - src.id) % n;
  const std::uint64_t block_bytes = src.kv.block_bytes();
  for (std::uint32_t b = 0; b < blocks; ++b) {
    net::Datapack pack;
    pack.bytes = block_bytes;
    pack.src_node = src.id;
    pack.block = b;
    pack.last = b + 1 == blocks;
    co_await fabric.transfer(src.id, dst.id, pack);
  }
  src.migrate_wire_bytes += block_bytes * blocks * hops;
  // Delivery: re-home, deposit the landing DMA in dst's kv-migrate ledger
  // (drained into the breakdown at its next iteration), and enqueue past
  // the capacity bound — the request cleared admission control once and
  // must not be re-exposed to load shedding.
  r.home = &dst;
  ++src.handoffs_out;
  ++dst.handoffs_in;
  ++dst.migrations_in;
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
  net::Datapack pack;
  pack.bytes = static_cast<std::uint64_t>(r.shape.prefill) * 4;  // token ids
  pack.src_node = victim.id;
  pack.last = true;
  co_await fabric.transfer(victim.id, thief.id, pack);
  thief.steal_wire_bytes += pack.bytes * hops;
  r.home = &thief;
  ++victim.handoffs_out;
  ++thief.handoffs_in;
  ++thief.steals_in;
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
      if (f.shared.arrivals_done() && f.queue.empty() && f.ready.empty() &&
          f.disagg == nullptr) {
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
                        f.queue.empty() ? category::kSchedulerIdle
                                        : category::kKvStall,
                        f.engine.now());
      }
      co_await f.work.wait();
      f.work.reset();
      if (obs != nullptr) obs->end_wait(f.id, f.engine.now());
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

    sim::Cycles offset = f.cfg.scheduler.iteration_overhead_cycles;
    if (obs != nullptr && offset > 0) {
      // Host-side iteration overhead opens the span ledger; together with
      // the placements below and the egress sync tail, the iteration's
      // spans tile [rec.start, rec.start + egress] exactly.
      obs->add_span(f.id, category::kHostSync, rec.start, rec.start + offset);
    }
    if (f.cache) {
      // Swap transfers accrued since the last iteration (reclaim
      // swap-outs, admission swap-ins) occupy the pipeline before compute
      // — the DMA engine owns the HBM channels for the duration — and
      // land in their own `kv-swap` category, keeping the tiling identity
      // exact. Zero (and span-free) whenever the swap tier never fired.
      const sim::Cycles swap = f.cache->take_pending_swap_cycles();
      if (swap > 0) {
        if (obs != nullptr) {
          obs->add_span(f.id, category::kKvSwap, rec.start + offset,
                        rec.start + offset + swap);
        }
        offset += swap;
      }
    }
    if (f.disagg != nullptr && f.pending_migrate_cycles > 0) {
      // Migrated-KV ingest DMA deposited since the last iteration occupies
      // the pipeline before compute, exactly like the swap ledger above;
      // its own `kv-migrate` category keeps the tiling identity exact.
      const sim::Cycles mig = f.pending_migrate_cycles;
      f.pending_migrate_cycles = 0;
      f.migrate_ingest_cycles += mig;
      if (obs != nullptr) {
        obs->add_span(f.id, category::kKvMigrate, rec.start + offset,
                      rec.start + offset + mig);
      }
      offset += mig;
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
      if (!f.decodes.empty()) {
        if (obs != nullptr && decode_group > 0) {
          obs->add_span(f.id, category::kDecode, rec.start + offset,
                        rec.start + offset + decode_group);
        }
        offset += decode_group;
      }
    };
    auto place_prefills = [&] {
      if (f.cfg.scheduler.share_prefill_weights && f.prefills.size() > 1) {
        // Batched prefill weight sharing: the group's chunks advance in
        // lockstep wavefronts, sharing each weight-stream pass the way the
        // decode group does, instead of each chunk re-streaming the whole
        // weight set back to back.
        f.prefill_chunk_spans.clear();
        for (const ScheduledStep& s : f.prefills) {
          f.prefill_chunk_spans.emplace_back(s.request->prompt_done,
                                             s.prompt_tokens);
        }
        const sim::Cycles group =
            f.costs.prefill_group_cycles(f.prefill_chunk_spans);
        bool all_recompute = true;
        bool all_whole = true;
        for (const ScheduledStep& s : f.prefills) {
          Request* r = s.request;
          r->step_offset = offset;
          r->step_cycles = group;
          r->step_tokens = s.prompt_tokens;
          all_recompute &= r->recovering;
          all_whole &= r->prompt_done == 0 &&
                       s.prompt_tokens == r->prompt_remaining();
        }
        if (obs != nullptr && group > 0) {
          const char* cat = all_recompute ? category::kRecompute
                            : all_whole   ? category::kPrefill
                                          : category::kChunkedPrefill;
          obs->add_span(f.id, cat, rec.start + offset,
                        rec.start + offset + group);
        }
        offset += group;
        prefill_span += group;
        f.prefill_cycles_executed += group;
        return;
      }
      for (const ScheduledStep& s : f.prefills) {
        Request* r = s.request;
        r->step_offset = offset;
        r->step_cycles =
            f.costs.prefill_chunk_cycles(r->prompt_done, s.prompt_tokens);
        r->step_tokens = s.prompt_tokens;
        if (obs != nullptr && r->step_cycles > 0) {
          // Classified from the request's pre-execution state: a recovery
          // re-prefill is recompute; a chunk covering the whole prompt at
          // once is plain prefill; anything else is chunked prefill.
          const char* cat =
              r->recovering ? category::kRecompute
              : (r->prompt_done == 0 &&
                 s.prompt_tokens == r->prompt_remaining())
                  ? category::kPrefill
                  : category::kChunkedPrefill;
          obs->add_span(f.id, cat, rec.start + offset,
                        rec.start + offset + r->step_cycles);
        }
        offset += r->step_cycles;
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
    const sim::Cycles egress = offset + f.costs.host_sync_cycles();
    if (obs != nullptr && egress > offset) {
      obs->add_span(f.id, category::kHostSync, rec.start + offset,
                    rec.start + egress);
    }
    // One engine event per iteration: every member's step is booked now,
    // then the scheduler sleeps to egress. Batch order is pipeline-slot
    // order (prefill offsets are cumulative, decode members share one
    // slot), each step's records carry the instant its slot ends, and
    // Observer::finalize time-sorts the log. The prefix cache orders its
    // LRU by insertion tick, so committing before the slot ends is
    // indistinguishable from committing at it.
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
          f.gap_cycles.push_back(gap);
        }
        r->emitted_token = true;
        r->last_token = now;
      }
      if (r->finished()) {
        f.record_completion(*r);
        f.work.set();  // freed KV slots may unblock the queue head
        r->done.set();
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
  // [exit, makespan] — non-empty whenever another replica (or a closed-loop
  // client's think time) outlives this one.
  if (obs != nullptr) obs->mark_exit(f.id, f.engine.now());
}

util::PercentileSummary cycle_summary_ms(std::vector<sim::Cycles> cycles,
                                         const core::ArchConfig& arch) {
  util::PercentileSummary s;
  if (cycles.empty()) return s;
  util::radix_sort(cycles);
  // cycles_to_ms multiplies by a positive constant — monotone, so the
  // converted values come out ascending-sorted and every accumulation
  // below sees exactly the sequence percentile_summary would have built:
  // the mean sums the converted samples in ascending order, and each
  // percentile interpolates between the two converted neighbors. No
  // intermediate double vector is materialized (for the inter-token gap
  // series that vector would be millions of elements).
  double sum = 0.0;
  for (sim::Cycles c : cycles) sum += arch.cycles_to_ms(c);
  s.count = cycles.size();
  s.mean = sum / static_cast<double>(cycles.size());
  const auto interp = [&](double p) {
    const double rank =
        (p / 100.0) * static_cast<double>(cycles.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, cycles.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return arch.cycles_to_ms(cycles[lo]) * (1.0 - frac) +
           arch.cycles_to_ms(cycles[hi]) * frac;
  };
  s.p50 = interp(50.0);
  s.p95 = interp(95.0);
  s.p99 = interp(99.0);
  return s;
}

FleetMetrics finalize_metrics(Replica& f) {
  if (f.shared.observer != nullptr) {
    f.shared.observer->set_kv_stats(f.id, f.kv.capacity_blocks(),
                                    f.kv.peak_used_blocks(),
                                    f.kv.block_tokens());
  }
  FleetMetrics m;
  m.offered = f.routed;
  m.completed = f.completed;
  m.rejected = f.rejected;
  m.decode_tokens = f.decode_tokens;
  m.total_tokens = f.total_tokens;
  m.slo = f.cfg.slo;
  const double duration_s =
      static_cast<double>(f.engine.now()) / f.cfg.arch.frequency_hz;
  m.duration_s = duration_s;
  if (duration_s > 0) {
    m.throughput_req_s = static_cast<double>(m.completed) / duration_s;
    m.throughput_tok_s = static_cast<double>(m.total_tokens) / duration_s;
    m.decode_tok_s = static_cast<double>(m.decode_tokens) / duration_s;
    m.goodput_req_s = static_cast<double>(f.good) / duration_s;
    m.busy_fraction = static_cast<double>(f.busy_cycles) /
                      static_cast<double>(f.engine.now());
  }
  m.slo_good = f.good;
  m.ttft_ms = cycle_summary_ms(std::move(f.ttft_cycles), f.cfg.arch);
  m.token_ms = util::percentile_summary(std::move(f.token_ms));
  m.e2e_ms = cycle_summary_ms(std::move(f.e2e_cycles), f.cfg.arch);
  m.queue_wait_ms =
      cycle_summary_ms(std::move(f.queue_wait_cycles), f.cfg.arch);
  m.inter_token_gap_ms = cycle_summary_ms(std::move(f.gap_cycles), f.cfg.arch);
  m.iterations = f.sched.iteration_count();
  m.mean_batch_size = f.sched.mean_batch_size();
  m.prefill_chunk_steps = f.prefill_chunk_steps;
  m.chunked_prompts = f.chunked_prompts;
  m.decode_stall_iterations = f.decode_stall_iterations;
  m.decode_stall_ms = f.cfg.arch.cycles_to_ms(f.decode_stall_cycles);
  m.peak_in_flight = f.peak_active;
  m.peak_queue_depth = f.queue.peak_depth();
  m.kv_peak_occupancy = f.kv.peak_occupancy();
  m.kv_stall_events = f.kv.stall_events();
  m.kv_over_release_events = f.kv.over_release_events();
  m.prefix_cache = f.cfg.prefix_cache;
  m.kv_swap = f.cfg.kv_swap;
  m.prefill_cycles = f.prefill_cycles_executed;
  if (f.cache) {
    m.cache_lookups = f.cache_lookups;
    m.cache_lookup_tokens = f.cache_lookup_tokens;
    m.cache_hit_requests = f.cache_hit_requests;
    m.cache_hit_tokens = f.cache_hit_tokens;
    if (f.cache_lookup_tokens > 0) {
      m.cache_hit_rate = static_cast<double>(f.cache_hit_tokens) /
                         static_cast<double>(f.cache_lookup_tokens);
    }
    m.saved_prefill_cycles = f.cache_saved_prefill_cycles;
    m.saved_prefill_ms = f.cfg.arch.cycles_to_ms(f.cache_saved_prefill_cycles);
    m.cache_insert_blocks = f.cache->insert_blocks();
    m.cache_evict_blocks = f.cache->evict_blocks();
    m.cache_cow_events = f.cache->cow_events();
    m.cache_dedup_blocks = f.cache->dedup_blocks();
    m.cache_swap_out_blocks = f.cache->swap_out_blocks();
    m.cache_swap_in_blocks = f.cache->swap_in_blocks();
    m.cache_swap_ms = f.cfg.arch.cycles_to_ms(f.cache->swap_cycles_total());
    m.cache_blocks_at_end = f.cache->resident_blocks();
    // Teardown BEFORE the leak gauge below: drain() returns every
    // cache-owned resident block to the pool (and throws if a request
    // leaked a reference), so kv_blocks_in_use_at_end keeps meaning
    // "private blocks someone forgot to release" — pinned at 0.
    f.cache->drain();
  }
  m.kv_blocks_in_use_at_end = f.kv.used_blocks();
  m.preempt = f.cfg.scheduler.preempt;
  m.kv_block_tokens = f.kv.block_tokens();
  m.kv_capacity_blocks = f.kv.capacity_blocks();
  m.kv_peak_used_blocks = f.kv.peak_used_blocks();
  m.kv_peak_frag_tokens = f.kv.peak_frag_tokens();
  m.preemptions = f.preemptions;
  m.recompute_tokens = f.recompute_tokens;
  m.recompute_ms = f.cfg.arch.cycles_to_ms(f.recompute_cycles);
  if (f.disagg != nullptr) {
    // Out-side counters only: the fleet sums per-replica metrics, so
    // counting both ends would double every migration/steal.
    m.kv_migrations = f.migrations_out;
    m.kv_migrated_blocks = f.migrated_blocks_out;
    m.kv_migrate_wire_bytes = f.migrate_wire_bytes;
    m.kv_migrate_ingest_ms = f.cfg.arch.cycles_to_ms(f.migrate_ingest_cycles);
    m.work_steals = f.steals_out;
    m.steal_wire_bytes = f.steal_wire_bytes;
    m.handoffs_in = f.handoffs_in;
    m.handoffs_out = f.handoffs_out;
  }
  if (f.cfg.keep_request_records) {
    // The retirement log is in completion order; records went out in
    // creation (== id) order before, so sort by id to match byte for byte.
    std::sort(f.finished.begin(), f.finished.end(),
              [](const FinishedRequest& a, const FinishedRequest& b) {
                return a.id < b.id;
              });
    m.requests.reserve(f.finished.size());
    for (const FinishedRequest& r : f.finished) {
      RequestRecord rec;
      rec.id = r.id;
      rec.replica = f.id;
      rec.prefill_tokens = r.prefill_tokens;
      rec.decode_tokens = r.decoded;
      rec.prefill_chunks = r.prefill_chunks;
      rec.preemptions = r.preempt_count;
      rec.cached_prefix_tokens = r.cached_prefix;
      rec.live_replicas = r.live_at_route;
      rec.rejected = r.rejected;
      rec.migrated = r.migrated;
      rec.stolen = r.stolen;
      if (!rec.rejected) {
        rec.queue_wait_ms = f.ms(r.admitted - r.arrival);
        rec.ttft_ms = f.ms(r.first_token - r.arrival);
        rec.e2e_ms = f.ms(r.completed - r.arrival);
        rec.max_token_gap_ms = f.ms(r.max_token_gap);
      }
      m.requests.push_back(rec);
    }
  }
  return m;
}

}  // namespace looplynx::serve::detail
