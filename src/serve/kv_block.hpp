// Paged KV-cache accounting for the serving fleet.
//
// Capacity is split into fixed-size token blocks (the vLLM paging model
// mapped onto the HBM pseudo-channels the architecture dedicates to the KV
// cache: arch.kv_channels x 256 MiB per node on the Alveo U50, int8
// per-token footprint from model::KvCacheT's layout). Each request owns a
// grown-on-demand KvBlockList instead of an up-front whole-footprint
// reservation: admission only needs the prompt's blocks, and decode blocks
// are allocated as tokens are emitted. When a grow finds no free block the
// caller decides what gives — the scheduler either leaves the request
// queued (admission backpressure) or preempts a victim
// (serve::PreemptPolicy::kRecomputeYoungest frees the victim's list and
// re-runs its KV as chunked prefill).
//
// Invariants:
//  - block_tokens == 1 makes the accounting token-granular — bit-identical
//    to the pre-paging whole-footprint KvSlotManager when combined with
//    PreemptPolicy::kNone, which is why it is the default everywhere a
//    sweep must stay byte-reproducible against older output.
//  - try_grow is all-or-nothing: on failure the list is untouched and the
//    stall is counted, so callers can retry after a release without
//    unwinding partial allocations.
//  - used_blocks() never underflows: release_all clamps an over-release
//    (always a caller bug) and counts it in over_release_events() instead
//    of wrapping free_blocks() — admission backpressure survives the bug.
//  - Fleets never share pools: each replica owns one KvBlockManager, so
//    free_blocks() is a per-replica signal (the kv-aware balancer
//    compares free_blocks() x block_tokens() across replicas).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "workload/scenario.hpp"

namespace looplynx::serve {

/// One request's block holdings. `blocks` is how many fixed-size blocks the
/// manager has handed this request; `committed_tokens` is the high-water
/// token count the caller asked those blocks to cover — the gap between
/// `blocks * block_tokens` and `committed_tokens` is internal
/// fragmentation. Plain data so unit tests (and the Request struct) can own
/// one without any engine plumbing.
struct KvBlockList {
  std::uint32_t blocks = 0;
  std::uint32_t committed_tokens = 0;
};

class KvBlockManager {
 public:
  /// `budget_bytes_per_node` == 0 selects the architecture default:
  /// kv_channels x 256 MiB of HBM per node. `block_tokens` is the paging
  /// granularity; 1 == token-granular (exact legacy accounting).
  KvBlockManager(const core::ArchConfig& arch, const model::ModelConfig& model,
                 std::uint64_t budget_bytes_per_node = 0,
                 std::uint32_t block_tokens = 1);

  /// K + V bytes one token occupies on one node (int8, the node's share of
  /// the heads).
  std::uint64_t bytes_per_token_per_node() const { return bytes_per_token_; }

  std::uint32_t block_tokens() const { return block_tokens_; }
  /// Bytes one full block occupies on one node — the unit the KV-migration
  /// fabric ships and the conservation tests count.
  std::uint64_t block_bytes() const {
    return static_cast<std::uint64_t>(block_tokens_) * bytes_per_token_;
  }
  std::uint32_t capacity_blocks() const { return capacity_blocks_; }
  /// Block-rounded token capacity (per node — the head-wise partition makes
  /// every node's occupancy identical).
  std::uint32_t capacity_tokens() const {
    return capacity_blocks_ * block_tokens_;
  }
  std::uint32_t used_blocks() const { return used_blocks_; }
  std::uint32_t free_blocks() const { return capacity_blocks_ - used_blocks_; }

  /// Blocks needed to cover `tokens` KV entries (ceiling division).
  std::uint32_t blocks_for(std::uint32_t tokens) const {
    return (tokens + block_tokens_ - 1) / block_tokens_;
  }

  /// A request whose lifetime footprint needs more blocks than exist can
  /// never run — callers must reject it instead of retrying (or
  /// preempting: evicting the whole fleet would still not make room).
  bool can_ever_fit(std::uint32_t tokens) const {
    return blocks_for(tokens) <= capacity_blocks_;
  }

  /// Grows `list` until it covers `tokens` KV entries. False (and a
  /// recorded stall) when the free pool runs short; the list is untouched
  /// on failure. Shrinking is not supported — a request's KV only grows
  /// until release_all.
  bool try_grow(KvBlockList& list, std::uint32_t tokens);

  /// Returns every block in `list` to the free pool (request completion or
  /// preemption) and resets the list. Releasing more blocks than the
  /// manager has outstanding is clamped (never underflows used_blocks_)
  /// and counted in over_release_events() — it always indicates a caller
  /// bug (a tampered or double-released list).
  void release_all(KvBlockList& list);

  /// Moves `blocks` *full* blocks (blocks x block_tokens committed tokens)
  /// out of `list` without touching the pool — pure ownership transfer,
  /// used when the prefix cache takes over a request's completed prompt
  /// blocks. used_blocks()/live_tokens()/fragmentation are invariant
  /// across a transfer (the new owner holds exactly what `list` gave up);
  /// transferring more full blocks than `list` holds is clamped and
  /// counted in over_release_events() like a bad release.
  void transfer_out(KvBlockList& list, std::uint32_t blocks);

  // ---- Statistics for FleetMetrics ----
  std::uint32_t peak_used_blocks() const { return peak_used_blocks_; }
  std::uint64_t stall_events() const { return stall_events_; }
  std::uint64_t over_release_events() const { return over_release_events_; }
  /// Tokens the outstanding lists were asked to cover (KV actually live).
  std::uint64_t live_tokens() const { return live_tokens_; }
  /// Internal fragmentation right now: allocated-but-uncommitted tokens in
  /// the tail blocks of every outstanding list.
  std::uint64_t frag_tokens() const {
    return static_cast<std::uint64_t>(used_blocks_) * block_tokens_ -
           live_tokens_;
  }
  std::uint64_t peak_frag_tokens() const { return peak_frag_tokens_; }
  double occupancy() const {
    return capacity_blocks_ == 0
               ? 0.0
               : static_cast<double>(used_blocks_) / capacity_blocks_;
  }
  double peak_occupancy() const {
    return capacity_blocks_ == 0
               ? 0.0
               : static_cast<double>(peak_used_blocks_) / capacity_blocks_;
  }

 private:
  std::uint64_t bytes_per_token_ = 0;
  std::uint32_t block_tokens_ = 1;
  std::uint32_t capacity_blocks_ = 0;
  std::uint32_t used_blocks_ = 0;
  std::uint32_t peak_used_blocks_ = 0;
  std::uint64_t live_tokens_ = 0;
  std::uint64_t peak_frag_tokens_ = 0;
  std::uint64_t stall_events_ = 0;
  std::uint64_t over_release_events_ = 0;
};

// ---------------------------------------------------------------------------
// Content-addressed prefix cache (the vLLM paging model's sharing half).
// ---------------------------------------------------------------------------

/// Sentinel chain hash: the parent of a prompt's first block, and the
/// tail_hash of a request that owns no cached blocks yet.
inline constexpr std::uint64_t kNoBlockHash = 0x10071f9ccafe5eedULL;

/// Per-request cache state, owned by serve::Request. Records which cached
/// blocks the request holds references on (admission hits plus its own
/// commits), how many prompt tokens those cover, and the partial-tail
/// registration it must withdraw on release. Plain data; every mutation
/// goes through PrefixCache so refcounts cannot drift.
struct CacheBinding {
  /// Prefill tokens skipped at admission: block-aligned chain hits plus
  /// any copy-on-write partial-tail tokens. The request's prefill cursor
  /// starts here.
  std::uint32_t cached_tokens = 0;
  /// Block-aligned prefix owned by the cache on this request's behalf
  /// (== chain.size() x block_tokens). The request's private KvBlockList
  /// covers positions >= owned_tokens only.
  std::uint32_t owned_tokens = 0;
  /// Chain hash of the deepest cache-owned block (parent for the next
  /// commit); kNoBlockHash at depth 0.
  std::uint64_t tail_hash = kNoBlockHash;
  /// Every cached block this request holds one reference on, root-first.
  std::vector<std::uint64_t> chain;
  /// Set while this request's in-HBM partial tail block is registered as
  /// a copy-on-write source.
  bool partial_registered = false;
  std::uint64_t partial_parent = kNoBlockHash;
  std::uint64_t partial_hash = 0;
};

/// What an admission-time lookup skipped (accounting only; the binding
/// carries the state).
struct PrefixHit {
  std::uint32_t cached_tokens = 0;  // prefill tokens skipped in total
  std::uint32_t chain_blocks = 0;   // full cached blocks hit
  std::uint32_t swapped_in = 0;     // of those, restored from host DRAM
  bool cow = false;                 // partial tail resolved by copy-on-write
};

/// Content-addressed prefix cache over one replica's KvBlockManager.
///
/// Prompt content is identified by hash chains: block i's chain hash is
/// hash(parent chain hash, the block's deterministic token ids from
/// workload::prompt_token_id), so equal prompt prefixes — and only equal
/// prefixes — collide on purpose. A hit turns the shared prefix's prefill
/// cycles into refcount increments; blocks whose refcount drops to zero
/// stay resident ("cached-idle") until pool pressure reclaims them.
///
/// Invariants:
///  - Cache-owned blocks are counted once in the KvBlockManager no matter
///    how many requests share them; commit is an ownership *transfer*
///    (KvBlockManager::transfer_out), never an allocation, so commits
///    cannot fail or deadlock against admission.
///  - Only full blocks of *prompt* content enter the hash table, and a
///    lookup never covers the whole prefill target (at least one token is
///    always prefilled), so first-chunk/TTFT semantics survive a total
///    hit. Partial tails are shared contentually: a divergent or
///    extending continuation resolves to a private copy at admission
///    (copy-on-write), priced as saved prefill, and is only valid while
///    the owner still holds the physical block.
///  - Reclaim is cost-aware and leaf-only: among resident refcount-zero
///    blocks with no resident children, the cheapest-to-rebuild (by
///    StepCostModel::recompute_cycles over the block's position span) is
///    evicted first, tie-broken by insertion order (ticks are unique, so
///    the order is total). Those candidates, and only those, live in an
///    ordered eviction index keyed (rebuild cost, insertion tick): a
///    victim is popped from its front, never found by a pass over the
///    cache. With the swap tier enabled a victim whose rebuild costs more
///    than a host round-trip is swapped out over the DMA/PCIe model
///    instead of discarded, and restored (and re-priced) on its next hit.
///  - Swap transfer cycles accumulate in a ledger the scheduler drains
///    into the observer's `kv-swap` category each iteration, so the
///    cycle-accounting tiling identity holds with swapping active.
///  - drain() releases every resident block back to the pool and throws
///    if any refcount is still live — the end-state blocks-in-use == 0
///    invariant keeps holding with the cache on — or if the eviction
///    index disagrees with the blocks' states.
class PrefixCache {
 public:
  PrefixCache(KvBlockManager& kv, const core::StepCostModel& costs,
              bool swap_enabled);

  /// Deterministic content hash of prompt positions [start, start + count)
  /// of `scenario` (ids from workload::prompt_token_id with `unique` as
  /// the per-request fallback stream).
  static std::uint64_t content_hash(const workload::Scenario& scenario,
                                    std::uint64_t unique, std::uint32_t start,
                                    std::uint32_t count);

  /// Chain step: hash(parent, content).
  static std::uint64_t chain_next(std::uint64_t parent, std::uint64_t content);

  /// Admission-time lookup: walks the prompt's hash chain, takes one
  /// reference per hit block (restoring swapped blocks when the pool
  /// allows), resolves at most one partial-tail copy-on-write hit, and
  /// fills `binding`. Covers at most min(prompt, prefill_target - 1)
  /// tokens. Call release() exactly once per successful acquire.
  PrefixHit acquire(const workload::Scenario& scenario, std::uint64_t unique,
                    std::uint32_t prompt_tokens, std::uint32_t prefill_target,
                    CacheBinding& binding);

  /// Called as the prefill cursor advances: commits every newly completed
  /// full prompt block in [binding.owned_tokens, min(prompt_done,
  /// prompt_tokens)) by transferring it out of `list` (or, when a
  /// concurrent request committed identical content first, by releasing
  /// the duplicate block and sharing the existing one), and registers the
  /// partial tail as a copy-on-write source once the prompt is fully
  /// prefilled.
  void commit(const workload::Scenario& scenario, std::uint64_t unique,
              std::uint32_t prompt_done, std::uint32_t prompt_tokens,
              KvBlockList& list, CacheBinding& binding);

  /// Drops one reference per bound block and withdraws the partial-tail
  /// registration (request completion or preemption). Refcount-zero
  /// blocks stay cached-idle until reclaimed.
  void release(CacheBinding& binding);

  /// Tries to free `blocks` pool blocks by reclaiming cached-idle leaves,
  /// cheapest-to-rebuild first (swap-out instead of discard when the swap
  /// tier is on and the round-trip is cheaper than the rebuild). Returns
  /// the number actually freed; callers retry their try_grow either way.
  std::uint32_t reclaim(std::uint32_t blocks);

  /// End-of-run teardown: returns every resident cache-owned block to the
  /// pool. Throws std::logic_error, before releasing anything, if any
  /// reference is still live — a request leaked its binding — or if the
  /// eviction index holds a block that is not evictable or misses one
  /// that is.
  void drain();

  /// Swap transfer cycles accrued since the last call (out + in). The
  /// scheduler drains this every iteration into a `kv-swap` span so the
  /// observer's tiling identity holds.
  sim::Cycles take_pending_swap_cycles();

  /// One-way host transfer price of one full block: PCIe turnaround plus
  /// the block's bytes at the HBM channel rate (the DMA engine's burst
  /// model). A swap round-trip costs twice this.
  sim::Cycles swap_transfer_cycles() const { return swap_transfer_cycles_; }

  /// Rebuild price of the block covering positions
  /// [depth x block_tokens, ...): what reclaim weighs against the swap
  /// round-trip.
  sim::Cycles rebuild_cycles(std::uint32_t depth) const;

  bool swap_enabled() const { return swap_enabled_; }

  // ---- Statistics for FleetMetrics ----
  std::uint32_t resident_blocks() const { return resident_blocks_; }
  std::uint64_t insert_blocks() const { return insert_blocks_; }
  std::uint64_t evict_blocks() const { return evict_blocks_; }
  std::uint64_t swap_out_blocks() const { return swap_out_blocks_; }
  std::uint64_t swap_in_blocks() const { return swap_in_blocks_; }
  std::uint64_t cow_events() const { return cow_events_; }
  std::uint64_t dedup_blocks() const { return dedup_blocks_; }
  sim::Cycles swap_cycles_total() const { return swap_cycles_total_; }

 private:
  struct CachedBlock {
    std::uint64_t parent = kNoBlockHash;
    std::uint32_t depth = 0;      // 0-based chain depth
    std::uint32_t refcount = 0;   // live sharers
    /// *Resident* cached blocks whose parent is this one. Counting only
    /// resident children is what keeps reclaim livelock-free: a parent
    /// whose children are all swapped out must stay evictable/swappable,
    /// or refcount-0 chains could pin the pool forever (the scheduler's
    /// oldest-waiter unwedge path relies on reclaim always being able to
    /// unwind unreferenced resident chains leaf-first).
    std::uint32_t children = 0;
    std::uint64_t inserted = 0;   // insertion tick (reclaim tie-break)
    bool resident = true;         // false = swapped to host DRAM
    bool indexed = false;         // present in evictable_
  };
  struct PartialTail {
    std::uint64_t hash = 0;       // chain_next(parent, content of k tokens)
    std::uint32_t tokens = 0;     // k, 1 <= k < block_tokens
    std::uint64_t owner = 0;      // registering request (validity scope)
  };
  /// Reclaim order: cheapest rebuild first, then oldest insertion.
  using EvictKey = std::pair<sim::Cycles, std::uint64_t>;

  static bool evictable(const CachedBlock& b) {
    return b.refcount == 0 && b.children == 0 && b.resident;
  }
  EvictKey evict_key(const CachedBlock& b) const {
    return {rebuild_cycles(b.depth), b.inserted};
  }
  /// Brings `b`'s membership in evictable_ in line with its state. Called
  /// after every refcount, resident-children or residency change.
  void sync_index(std::uint64_t hash, CachedBlock& b);
  /// sync_index on the parent of a block whose residency changed, after
  /// adjusting its resident-children count by `delta` (+1 or -1).
  void adjust_parent(std::uint64_t parent, int delta);
  void take_ref(std::uint64_t hash, CacheBinding& binding);
  bool restore(std::uint64_t hash, CachedBlock& block);

  KvBlockManager& kv_;
  const core::StepCostModel& costs_;
  bool swap_enabled_ = false;
  sim::Cycles swap_transfer_cycles_ = 0;
  // Keyed by chain hash. Nothing depends on their iteration order:
  // evictable_ alone decides reclaim order. 64-bit content hashes are
  // treated as collision-free (documented model assumption, same as
  // vLLM's).
  std::unordered_map<std::uint64_t, CachedBlock> blocks_;
  std::unordered_map<std::uint64_t, std::vector<PartialTail>>
      partials_;  // by parent
  // Exactly the blocks with evictable() true, by reclaim order, mapped to
  // their chain hash.
  std::map<EvictKey, std::uint64_t> evictable_;
  std::uint64_t tick_ = 0;              // insertion counter
  std::uint32_t resident_blocks_ = 0;   // cache-owned blocks in HBM
  std::uint64_t insert_blocks_ = 0;
  std::uint64_t evict_blocks_ = 0;
  std::uint64_t swap_out_blocks_ = 0;
  std::uint64_t swap_in_blocks_ = 0;
  std::uint64_t cow_events_ = 0;
  std::uint64_t dedup_blocks_ = 0;
  sim::Cycles pending_swap_cycles_ = 0;
  sim::Cycles swap_cycles_total_ = 0;
};

}  // namespace looplynx::serve
