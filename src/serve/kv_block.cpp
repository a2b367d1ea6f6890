#include "serve/kv_block.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace looplynx::serve {

namespace {
/// HBM2 pseudo-channel capacity on the Alveo U50 (8 GiB / 32 channels).
constexpr std::uint64_t kBytesPerPseudoChannel = 256ULL << 20;
}  // namespace

KvBlockManager::KvBlockManager(const core::ArchConfig& arch,
                               const model::ModelConfig& model,
                               std::uint64_t budget_bytes_per_node,
                               std::uint32_t block_tokens)
    : block_tokens_(block_tokens) {
  if (block_tokens_ == 0) {
    throw std::invalid_argument(
        "kv block_tokens must be >= 1 (1 = token-granular)");
  }
  const std::uint32_t heads_per_node =
      std::max<std::uint32_t>(1, model.n_head / arch.num_nodes);
  // K and V, int8, every layer, this node's heads.
  bytes_per_token_ = 2ULL * model.n_layer * heads_per_node * model.head_dim();
  const std::uint64_t budget =
      budget_bytes_per_node != 0
          ? budget_bytes_per_node
          : static_cast<std::uint64_t>(arch.kv_channels) *
                kBytesPerPseudoChannel;
  const std::uint64_t budget_tokens =
      std::min<std::uint64_t>(budget / bytes_per_token_, UINT32_MAX);
  capacity_blocks_ =
      static_cast<std::uint32_t>(budget_tokens / block_tokens_);
}

bool KvBlockManager::try_grow(KvBlockList& list, std::uint32_t tokens) {
  const std::uint32_t want = blocks_for(tokens);
  if (want > list.blocks) {
    const std::uint32_t add = want - list.blocks;
    if (add > free_blocks()) {
      ++stall_events_;
      return false;
    }
    used_blocks_ += add;
    list.blocks = want;
    peak_used_blocks_ = std::max(peak_used_blocks_, used_blocks_);
  }
  if (tokens > list.committed_tokens) {
    live_tokens_ += tokens - list.committed_tokens;
    list.committed_tokens = tokens;
  }
  peak_frag_tokens_ = std::max(peak_frag_tokens_, frag_tokens());
  return true;
}

void KvBlockManager::grow_stepwise(KvBlockList& list, std::uint32_t tokens) {
  const std::uint32_t from = list.committed_tokens;
  if (tokens <= from) return;
  // The list's spare tail slots after a step to t are
  // max(blocks, blocks_for(t)) * block_tokens - t: they fall one per step
  // inside the blocks the list holds, and a step that opens a block leaves
  // block_tokens - 1. So the first step and the first opening bound every
  // step's fragmentation, and every other list's share stays fixed.
  const std::uint64_t held =
      static_cast<std::uint64_t>(list.blocks) * block_tokens_;
  const std::uint64_t others = frag_tokens() + from - held;
  std::uint64_t spare = held > from ? held - from - 1 : 0;
  if (tokens > held) spare = std::max<std::uint64_t>(spare, block_tokens_ - 1);
  const std::uint32_t want = blocks_for(tokens);
  if (want > list.blocks) {
    assert(want - list.blocks <= free_blocks());
    used_blocks_ += want - list.blocks;
    list.blocks = want;
    peak_used_blocks_ = std::max(peak_used_blocks_, used_blocks_);
  }
  live_tokens_ += tokens - from;
  list.committed_tokens = tokens;
  peak_frag_tokens_ = std::max(peak_frag_tokens_, others + spare);
}

void KvBlockManager::release_all(KvBlockList& list) {
  // Releasing blocks the manager never handed out would underflow
  // used_blocks_ and make free_blocks() wrap to ~4 billion, silently
  // disabling admission backpressure. Clamp and count the event so the
  // accounting bug is observable instead of corrupting the fleet.
  std::uint32_t blocks = list.blocks;
  if (blocks > used_blocks_) {
    ++over_release_events_;
    blocks = used_blocks_;
  }
  used_blocks_ -= blocks;
  live_tokens_ -=
      std::min<std::uint64_t>(list.committed_tokens, live_tokens_);
  list = KvBlockList{};
}

void KvBlockManager::transfer_out(KvBlockList& list, std::uint32_t blocks) {
  // A transfer moves full blocks to a new owner; the pool totals are
  // untouched. Taking more full blocks than the list holds (or more
  // committed tokens than it covers) is the same class of caller bug as a
  // bad release — clamp and count it instead of corrupting the list.
  const std::uint64_t tokens =
      static_cast<std::uint64_t>(blocks) * block_tokens_;
  if (blocks > list.blocks || tokens > list.committed_tokens) {
    ++over_release_events_;
    blocks = std::min(blocks, list.blocks);
  }
  list.blocks -= blocks;
  list.committed_tokens -= static_cast<std::uint32_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(blocks) * block_tokens_,
      list.committed_tokens));
}

// ---------------------------------------------------------------------------
// PrefixCache
// ---------------------------------------------------------------------------

PrefixCache::PrefixCache(KvBlockManager& kv, const core::StepCostModel& costs,
                         bool swap_enabled)
    : kv_(kv), costs_(costs), swap_enabled_(swap_enabled) {
  // One-way host transfer of one full block: a PCIe turnaround plus the
  // block's bytes at the sustained HBM channel rate (the same burst model
  // the nodes' hw::HbmChannel streams charge); DMA descriptor setup is
  // noise next to the sync but kept for fidelity.
  const core::ArchConfig& arch = costs_.arch();
  const double bytes = static_cast<double>(kv_.block_tokens()) *
                       static_cast<double>(kv_.bytes_per_token_per_node());
  swap_transfer_cycles_ =
      arch.host_sync_cycles + arch.dma_setup_cycles +
      static_cast<sim::Cycles>(std::ceil(bytes / arch.hbm_bytes_per_cycle()));
}

std::uint64_t PrefixCache::chain_next(std::uint64_t parent,
                                      std::uint64_t content) {
  util::SplitMix64 sm(parent ^
                      (content + 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL);
  return sm.next();
}

std::uint64_t PrefixCache::content_hash(const workload::Scenario& scenario,
                                        std::uint64_t unique,
                                        std::uint32_t start,
                                        std::uint32_t count) {
  std::uint64_t h = 0x94d049bb133111ebULL ^ count;
  for (std::uint32_t pos = start; pos < start + count; ++pos) {
    h = chain_next(h, workload::prompt_token_id(scenario, unique, pos));
  }
  return h;
}

sim::Cycles PrefixCache::rebuild_cycles(std::uint32_t depth) const {
  const std::uint32_t bt = kv_.block_tokens();
  const std::uint32_t start = std::min(depth * bt, costs_.max_positions());
  const std::uint32_t end = std::min(start + bt, costs_.max_positions());
  return costs_.prefill_chunk_cycles(start, end - start);
}

void PrefixCache::sync_index(std::uint64_t hash, CachedBlock& b) {
  const bool want = evictable(b);
  if (want == b.indexed) return;
  if (want) {
    evictable_.emplace(evict_key(b), hash);
  } else {
    evictable_.erase(evict_key(b));
  }
  b.indexed = want;
}

void PrefixCache::adjust_parent(std::uint64_t parent, int delta) {
  auto it = blocks_.find(parent);
  if (it == blocks_.end()) return;
  CachedBlock& p = it->second;
  if (delta > 0) {
    ++p.children;
  } else if (p.children > 0) {
    --p.children;
  }
  sync_index(parent, p);
}

void PrefixCache::take_ref(std::uint64_t hash, CacheBinding& binding) {
  CachedBlock& b = blocks_.at(hash);
  ++b.refcount;
  sync_index(hash, b);
  binding.chain.push_back(hash);
  binding.owned_tokens += kv_.block_tokens();
  binding.tail_hash = hash;
}

bool PrefixCache::restore(std::uint64_t hash, CachedBlock& block) {
  if (kv_.free_blocks() == 0) reclaim(1);
  KvBlockList one;
  if (!kv_.try_grow(one, kv_.block_tokens())) return false;
  block.resident = true;
  sync_index(hash, block);
  // Back in residency: re-pin the parent (acquire restores root-first, so
  // the parent is already resident when its child comes back).
  adjust_parent(block.parent, +1);
  ++resident_blocks_;
  ++swap_in_blocks_;
  pending_swap_cycles_ += swap_transfer_cycles_;
  swap_cycles_total_ += swap_transfer_cycles_;
  return true;
}

PrefixHit PrefixCache::acquire(const workload::Scenario& scenario,
                               std::uint64_t unique,
                               std::uint32_t prompt_tokens,
                               std::uint32_t prefill_target,
                               CacheBinding& binding) {
  PrefixHit hit;
  binding = CacheBinding{};
  if (prefill_target == 0) return hit;
  // Never cover the whole prefill target: at least one token is always
  // prefilled so the first-chunk/TTFT path keeps its meaning (vLLM does
  // the same). Only prompt content is content-addressed — a recompute
  // target's folded-in decode tokens are always re-prefilled.
  const std::uint32_t max_cov = std::min(prompt_tokens, prefill_target - 1);
  const std::uint32_t bt = kv_.block_tokens();
  std::uint64_t parent = kNoBlockHash;
  std::uint32_t pos = 0;
  while (pos + bt <= max_cov) {
    const std::uint64_t h =
        chain_next(parent, content_hash(scenario, unique, pos, bt));
    auto it = blocks_.find(h);
    if (it == blocks_.end()) break;
    if (!it->second.resident) {
      if (!restore(h, it->second)) break;
      ++hit.swapped_in;
    }
    take_ref(h, binding);
    ++hit.chain_blocks;
    parent = h;
    pos += bt;
  }
  binding.cached_tokens = pos;
  // Partial tail: a registered divergence point under `parent` whose k
  // tokens match our next k positions resolves as copy-on-write — the
  // sharer gets a private copy (already covered by its own block
  // allocation) and k tokens of prefill credit. Deterministic preference:
  // longest match, then smallest hash.
  auto pit = partials_.find(parent);
  if (pit != partials_.end()) {
    const PartialTail* best = nullptr;
    for (const PartialTail& cand : pit->second) {
      if (cand.tokens == 0 || pos + cand.tokens > max_cov) continue;
      const std::uint64_t h =
          chain_next(parent, content_hash(scenario, unique, pos, cand.tokens));
      if (h != cand.hash) continue;
      if (best == nullptr || cand.tokens > best->tokens ||
          (cand.tokens == best->tokens && cand.hash < best->hash)) {
        best = &cand;
      }
    }
    if (best != nullptr) {
      binding.cached_tokens += best->tokens;
      ++cow_events_;
      hit.cow = true;
    }
  }
  hit.cached_tokens = binding.cached_tokens;
  return hit;
}

void PrefixCache::commit(const workload::Scenario& scenario,
                         std::uint64_t unique, std::uint32_t prompt_done,
                         std::uint32_t prompt_tokens, KvBlockList& list,
                         CacheBinding& binding) {
  const std::uint32_t bt = kv_.block_tokens();
  const std::uint32_t limit = std::min(prompt_done, prompt_tokens);
  while (binding.owned_tokens + bt <= limit) {
    const std::uint32_t start = binding.owned_tokens;
    const std::uint64_t h = chain_next(
        binding.tail_hash, content_hash(scenario, unique, start, bt));
    auto it = blocks_.find(h);
    if (it != blocks_.end()) {
      // A concurrent request committed identical content first: drop our
      // duplicate block back to the pool and share theirs.
      kv_.transfer_out(list, 1);
      KvBlockList dup{1, bt};
      kv_.release_all(dup);
      if (!it->second.resident) {
        // The canonical copy lives on the host; ours was in HBM. Adopt
        // our block as the resident copy instead of re-paying a swap-in
        // later: same pool math as restore, without the transfer.
        KvBlockList one;
        if (kv_.try_grow(one, bt)) {
          it->second.resident = true;
          sync_index(h, it->second);
          adjust_parent(it->second.parent, +1);
          ++resident_blocks_;
        }
      }
      ++dedup_blocks_;
    } else {
      kv_.transfer_out(list, 1);
      CachedBlock b;
      b.parent = binding.tail_hash;
      b.depth = start / bt;
      b.inserted = tick_++;
      // Not indexed yet: take_ref below pins it before anything can
      // reclaim.
      blocks_.emplace(h, b);
      adjust_parent(binding.tail_hash, +1);
      ++resident_blocks_;
      ++insert_blocks_;
    }
    take_ref(h, binding);
  }
  // Prompt fully prefilled and it ends mid-block: register the tail as a
  // copy-on-write source for followers that extend this exact prefix.
  if (prompt_done >= prompt_tokens && !binding.partial_registered) {
    const std::uint32_t k = prompt_tokens - binding.owned_tokens;
    if (k >= 1 && k < bt) {
      const std::uint64_t h = chain_next(
          binding.tail_hash,
          content_hash(scenario, unique, binding.owned_tokens, k));
      std::vector<PartialTail>& reg = partials_[binding.tail_hash];
      bool exists = false;
      for (const PartialTail& p : reg) exists = exists || p.hash == h;
      if (!exists) {
        reg.push_back(PartialTail{h, k, unique});
        binding.partial_registered = true;
        binding.partial_parent = binding.tail_hash;
        binding.partial_hash = h;
      }
    }
  }
}

void PrefixCache::release(CacheBinding& binding) {
  for (std::uint64_t h : binding.chain) {
    auto it = blocks_.find(h);
    if (it == blocks_.end() || it->second.refcount == 0) {
      throw std::logic_error("prefix cache released an unheld reference");
    }
    --it->second.refcount;
    sync_index(h, it->second);
  }
  if (binding.partial_registered) {
    auto pit = partials_.find(binding.partial_parent);
    if (pit != partials_.end()) {
      std::erase_if(pit->second, [&](const PartialTail& p) {
        return p.hash == binding.partial_hash;
      });
      if (pit->second.empty()) partials_.erase(pit);
    }
  }
  binding = CacheBinding{};
}

std::uint32_t PrefixCache::reclaim(std::uint32_t blocks) {
  const std::uint32_t bt = kv_.block_tokens();
  std::uint32_t freed = 0;
  while (freed < blocks && !evictable_.empty()) {
    // Cost-aware victim: the cheapest-to-rebuild cached-idle leaf, oldest
    // first among equals — the front of the eviction index.
    const auto front = evictable_.begin();
    const sim::Cycles victim_cost = front->first.first;
    const std::uint64_t hash = front->second;
    evictable_.erase(front);
    auto victim = blocks_.find(hash);
    victim->second.indexed = false;
    // Tier decision: keep the KV (swap to host) when a round-trip is
    // cheaper than recomputing it, otherwise discard and let a future
    // miss re-prefill.
    const bool swap_out =
        swap_enabled_ && 2 * swap_transfer_cycles_ < victim_cost;
    // Either way the victim leaves residency, so its parent's
    // resident-children count drops — a parent whose subtree is entirely
    // swapped out must itself remain evictable/swappable or refcount-0
    // chains would pin the pool forever.
    adjust_parent(victim->second.parent, -1);
    if (swap_out) {
      victim->second.resident = false;
      ++swap_out_blocks_;
      pending_swap_cycles_ += swap_transfer_cycles_;
      swap_cycles_total_ += swap_transfer_cycles_;
    } else {
      // Erasing may strand already-swapped-out descendants as unreachable
      // map entries (acquire's walk breaks at the missing parent). They
      // hold no pool blocks, so this is memory-only slack until drain().
      blocks_.erase(victim);
      ++evict_blocks_;
    }
    KvBlockList one{1, bt};
    kv_.release_all(one);
    --resident_blocks_;
    ++freed;
  }
  return freed;
}

void PrefixCache::drain() {
  std::uint32_t resident = 0;
  std::size_t indexed = 0;
  for (const auto& [h, b] : blocks_) {
    if (b.refcount != 0) {
      throw std::logic_error("prefix cache drained with live references");
    }
    const auto it = evictable_.find(evict_key(b));
    const bool member = it != evictable_.end() && it->second == h;
    if (member != evictable(b) || member != b.indexed) {
      throw std::logic_error(
          "prefix cache eviction index disagrees with a block's state");
    }
    indexed += member ? 1 : 0;
    resident += b.resident ? 1 : 0;
  }
  if (indexed != evictable_.size()) {
    throw std::logic_error(
        "prefix cache eviction index holds blocks the cache does not");
  }
  const std::uint32_t bt = kv_.block_tokens();
  KvBlockList all{resident, resident * bt};
  kv_.release_all(all);
  resident_blocks_ -= resident;
  blocks_.clear();
  partials_.clear();
  evictable_.clear();
}

sim::Cycles PrefixCache::take_pending_swap_cycles() {
  const sim::Cycles c = pending_swap_cycles_;
  pending_swap_cycles_ = 0;
  return c;
}

}  // namespace looplynx::serve
