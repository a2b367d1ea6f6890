// Unit tests for the content-addressed prefix cache (serve/kv_block.hpp):
// hash-chain reuse across requests, copy-on-write divergence, refcounted
// frees, the swap-vs-recompute pricing decision, and cache-on end-to-end
// determinism. The engine-level invariants (drain leaves blocks-in-use at
// zero across the whole scheduler matrix) live in
// test_serve_invariants.cpp; these tests drive PrefixCache directly so a
// failure points at the cache, not the scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/kv_block.hpp"
#include "serve/serving_sim.hpp"
#include "serve/traffic.hpp"
#include "workload/scenario.hpp"

namespace looplynx::serve {
namespace {

constexpr std::uint32_t kBlockTokens = 8;

/// A prompt whose first `shared` tokens carry seed-keyed content (the
/// shareable prefix) and whose remainder is request-unique.
workload::Scenario shared_prefix_scenario(std::uint32_t shared,
                                          std::uint32_t prefill,
                                          std::uint32_t decode,
                                          std::uint64_t content_seed) {
  workload::Scenario s = workload::make_scenario(prefill, decode);
  s.prompt_segments.push_back({content_seed, shared});
  return s;
}

class PrefixCacheTest : public ::testing::Test {
 protected:
  PrefixCacheTest()
      : arch_(core::ArchConfig::one_node()),
        model_(model::cosim_config()),
        costs_(arch_, model_, 16),
        kv_(arch_, model_, /*budget=*/64 * model_bytes_per_token(),
            kBlockTokens),
        cache_(kv_, costs_, /*swap_enabled=*/false) {}

  std::uint64_t model_bytes_per_token() {
    return KvBlockManager(arch_, model::cosim_config(), 1)
        .bytes_per_token_per_node();
  }

  /// Admits + fully prefills `scenario` for request `id`: grows a private
  /// list over the uncached positions, then commits every full prompt
  /// block, mirroring the replica's admission/prefill sequence.
  PrefixHit run_prefill(const workload::Scenario& scenario, std::uint64_t id,
                        KvBlockList& list, CacheBinding& binding,
                        PrefixCache* cache = nullptr) {
    PrefixCache& c = cache != nullptr ? *cache : cache_;
    const PrefixHit hit = c.acquire(scenario, id, scenario.prefill,
                                    scenario.prefill, binding);
    const std::uint32_t priv = scenario.prefill - binding.owned_tokens;
    EXPECT_TRUE(kv_.try_grow(list, priv));
    c.commit(scenario, id, scenario.prefill, scenario.prefill, list, binding);
    return hit;
  }

  /// What admitting a prompt whose first `blocks` blocks carry content
  /// `seed` would hit right now. Restores swapped blocks like any lookup,
  /// then drops its references again.
  static PrefixHit probe(PrefixCache& c, std::uint64_t seed,
                         std::uint32_t blocks) {
    const std::uint32_t tokens = blocks * kBlockTokens;
    const workload::Scenario s =
        shared_prefix_scenario(tokens, tokens + 1, 8, seed);
    CacheBinding b;
    const PrefixHit hit = c.acquire(s, /*unique=*/999, s.prefill, s.prefill, b);
    c.release(b);
    return hit;
  }

  /// Shallowest chain depth whose block the swap tier keeps rather than
  /// discards (its rebuild outprices the DMA round-trip).
  static std::uint32_t first_swapped_depth(const PrefixCache& c) {
    std::uint32_t depth = 0;
    while (depth < 32 &&
           2 * c.swap_transfer_cycles() >= c.rebuild_cycles(depth)) {
      ++depth;
    }
    return depth;
  }

  core::ArchConfig arch_;
  model::ModelConfig model_;
  core::StepCostModel costs_;
  KvBlockManager kv_;
  PrefixCache cache_;
};

// ---------------------------------------------------------------------------
// Hash-chain reuse
// ---------------------------------------------------------------------------

TEST_F(PrefixCacheTest, SecondRequestReusesCommittedChain) {
  const workload::Scenario s =
      shared_prefix_scenario(32, 40, 8, /*content_seed=*/42);

  KvBlockList l1;
  CacheBinding b1;
  const PrefixHit miss = run_prefill(s, /*id=*/1, l1, b1);
  EXPECT_EQ(miss.cached_tokens, 0u);
  // 32 shared + 8 unique tokens = 5 full blocks committed (the whole
  // prompt is block-aligned), all transferred out of the private list.
  EXPECT_EQ(b1.chain.size(), 5u);
  EXPECT_EQ(l1.blocks, 0u);

  // Same shared content, different request: the 32 shared tokens hit; the
  // chain breaks at the first unique block.
  KvBlockList l2;
  CacheBinding b2;
  const PrefixHit hit = run_prefill(s, /*id=*/2, l2, b2);
  EXPECT_EQ(hit.chain_blocks, 4u);
  EXPECT_EQ(hit.cached_tokens, 4u * kBlockTokens);
  EXPECT_FALSE(hit.cow);

  const std::uint32_t used_before = kv_.used_blocks();
  cache_.release(b1);
  cache_.release(b2);
  // Releases drop references only — cached-idle blocks stay resident.
  EXPECT_EQ(kv_.used_blocks(), used_before);
  cache_.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
}

TEST_F(PrefixCacheTest, LookupNeverCoversWholePrefillTarget) {
  // Prompt == prefill target and fully block-aligned: the final block
  // must not be taken even though it is cached (at least one token is
  // always prefilled).
  const workload::Scenario s =
      shared_prefix_scenario(32, 32, 8, /*content_seed=*/5);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(s, 1, l1, b1);

  CacheBinding b2;
  const PrefixHit hit = cache_.acquire(s, 2, s.prefill, s.prefill, b2);
  EXPECT_EQ(hit.chain_blocks, 3u);  // 4 cached, max coverage 31 tokens
  EXPECT_EQ(hit.cached_tokens, 3u * kBlockTokens);
  cache_.release(b2);
  cache_.release(b1);
  cache_.drain();
}

TEST_F(PrefixCacheTest, DifferentContentNeverHits) {
  const workload::Scenario a =
      shared_prefix_scenario(32, 40, 8, /*content_seed=*/1);
  const workload::Scenario b =
      shared_prefix_scenario(32, 40, 8, /*content_seed=*/2);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(a, 1, l1, b1);

  CacheBinding b2;
  const PrefixHit hit = cache_.acquire(b, 2, b.prefill, b.prefill, b2);
  EXPECT_EQ(hit.cached_tokens, 0u);
  cache_.release(b2);
  cache_.release(b1);
  cache_.drain();
}

// ---------------------------------------------------------------------------
// Copy-on-write divergence
// ---------------------------------------------------------------------------

TEST_F(PrefixCacheTest, PartialTailResolvesAsCopyOnWrite) {
  // 36 shared tokens = 4 full blocks + a 4-token partial tail. The first
  // request registers the tail as a CoW source once fully prefilled; a
  // second request extending the same 36-token prefix gets the 4 tail
  // tokens as a copy-on-write credit on top of the 4-block chain hit.
  const workload::Scenario first =
      shared_prefix_scenario(36, 36, 8, /*content_seed=*/9);
  const workload::Scenario second =
      shared_prefix_scenario(36, 48, 8, /*content_seed=*/9);

  KvBlockList l1;
  CacheBinding b1;
  run_prefill(first, 1, l1, b1);
  EXPECT_TRUE(b1.partial_registered);

  KvBlockList l2;
  CacheBinding b2;
  const PrefixHit hit = cache_.acquire(second, 2, second.prefill,
                                       second.prefill, b2);
  EXPECT_TRUE(hit.cow);
  EXPECT_EQ(hit.chain_blocks, 4u);
  EXPECT_EQ(hit.cached_tokens, 36u);  // 32 chained + 4 copy-on-write

  // The CoW source is only valid while the owner holds the physical
  // block: releasing the first request withdraws the registration, so a
  // third request gets the chain hit but no tail credit.
  cache_.release(b2);
  cache_.release(b1);
  CacheBinding b3;
  const PrefixHit later = cache_.acquire(second, 3, second.prefill,
                                         second.prefill, b3);
  EXPECT_FALSE(later.cow);
  EXPECT_EQ(later.cached_tokens, 32u);
  cache_.release(b3);
  cache_.drain();
}

// ---------------------------------------------------------------------------
// Refcounted frees + reclaim tiers
// ---------------------------------------------------------------------------

TEST_F(PrefixCacheTest, ReclaimSkipsReferencedBlocksAndFreesIdleLeaves) {
  const workload::Scenario s =
      shared_prefix_scenario(32, 32, 8, /*content_seed=*/3);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(s, 1, l1, b1);  // 4 blocks cached, all referenced by b1

  // Every block is referenced: nothing is reclaimable.
  EXPECT_EQ(cache_.reclaim(4), 0u);

  cache_.release(b1);
  // Now the whole chain is cached-idle; reclaim unwinds it leaf-first.
  const std::uint32_t used = kv_.used_blocks();
  EXPECT_EQ(cache_.reclaim(2), 2u);
  EXPECT_EQ(kv_.used_blocks(), used - 2);
  EXPECT_EQ(cache_.evict_blocks(), 2u);
  EXPECT_EQ(cache_.reclaim(99), 2u);  // only 2 left
  EXPECT_EQ(kv_.used_blocks(), 0u);
  cache_.drain();
}

TEST_F(PrefixCacheTest, DrainThrowsOnLiveReferences) {
  const workload::Scenario s =
      shared_prefix_scenario(16, 16, 8, /*content_seed=*/4);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(s, 1, l1, b1);
  EXPECT_THROW(cache_.drain(), std::logic_error);
  cache_.release(b1);
  cache_.drain();
}

TEST_F(PrefixCacheTest, ConcurrentIdenticalCommitDedups) {
  // Two requests prefill the same content before either sees the other's
  // blocks: the second commit must dedup (drop its duplicate block and
  // share the first one) instead of double-counting pool blocks.
  const workload::Scenario s =
      shared_prefix_scenario(16, 16, 8, /*content_seed=*/6);
  CacheBinding b1, b2;
  KvBlockList l1, l2;
  ASSERT_EQ(cache_.acquire(s, 1, s.prefill, s.prefill, b1).cached_tokens, 0u);
  ASSERT_EQ(cache_.acquire(s, 2, s.prefill, s.prefill, b2).cached_tokens, 0u);
  ASSERT_TRUE(kv_.try_grow(l1, s.prefill));
  ASSERT_TRUE(kv_.try_grow(l2, s.prefill));
  const std::uint32_t used_peak = kv_.used_blocks();
  cache_.commit(s, 1, s.prefill, s.prefill, l1, b1);
  cache_.commit(s, 2, s.prefill, s.prefill, l2, b2);
  EXPECT_EQ(cache_.dedup_blocks(), 2u);  // both full blocks shared
  // The duplicate allocation went back to the pool at commit time.
  EXPECT_EQ(kv_.used_blocks(), used_peak - 2);
  EXPECT_EQ(b1.chain, b2.chain);
  cache_.release(b1);
  cache_.release(b2);
  cache_.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
  EXPECT_EQ(kv_.over_release_events(), 0u);
}

// ---------------------------------------------------------------------------
// Swap-vs-recompute pricing
// ---------------------------------------------------------------------------

TEST_F(PrefixCacheTest, SwapTierKeepsExpensiveBlocksAndDropsCheapOnes) {
  PrefixCache swap_cache(kv_, costs_, /*swap_enabled=*/true);
  const workload::Scenario s =
      shared_prefix_scenario(32, 32, 8, /*content_seed=*/8);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(s, 1, l1, b1, &swap_cache);
  swap_cache.release(b1);

  // The pricing rule itself: a block is swapped out instead of discarded
  // exactly when the round-trip DMA costs less than rebuilding it.
  const sim::Cycles transfer = swap_cache.swap_transfer_cycles();
  std::uint32_t expect_swapped = 0, expect_evicted = 0;
  for (std::uint32_t depth = 0; depth < 4; ++depth) {
    if (2 * transfer < swap_cache.rebuild_cycles(depth)) {
      ++expect_swapped;
    } else {
      ++expect_evicted;
    }
  }
  EXPECT_EQ(swap_cache.reclaim(4), 4u);
  EXPECT_EQ(swap_cache.swap_out_blocks(), expect_swapped);
  EXPECT_EQ(swap_cache.evict_blocks(), expect_evicted);
  EXPECT_EQ(kv_.used_blocks(), 0u);  // both tiers free the pool block

  if (expect_swapped > 0) {
    // Swap cycles accrue in the ledger until the scheduler drains them.
    EXPECT_GT(swap_cache.take_pending_swap_cycles(), 0);
    EXPECT_EQ(swap_cache.take_pending_swap_cycles(), 0);
  }
  swap_cache.drain();
}

TEST_F(PrefixCacheTest, SwappedBlocksRestoreOnTheNextHit) {
  PrefixCache swap_cache(kv_, costs_, /*swap_enabled=*/true);
  // Deep prompt so the per-block rebuild price clears the DMA round-trip
  // (attention makes late blocks expensive).
  const workload::Scenario s =
      shared_prefix_scenario(64, 64, 8, /*content_seed=*/11);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(s, 1, l1, b1, &swap_cache);
  swap_cache.release(b1);
  swap_cache.reclaim(8);
  const std::uint64_t swapped = swap_cache.swap_out_blocks();
  ASSERT_GT(swapped, 0u);

  CacheBinding b2;
  const PrefixHit hit = swap_cache.acquire(s, 2, s.prefill, s.prefill, b2);
  EXPECT_GT(hit.swapped_in, 0u);
  EXPECT_EQ(swap_cache.swap_in_blocks(), hit.swapped_in);
  // Restored blocks are resident and referenced again.
  EXPECT_EQ(hit.chain_blocks * kBlockTokens, hit.cached_tokens);
  swap_cache.release(b2);
  swap_cache.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// Eviction index: every state change a reclaim candidate can go through.
// Each test ends in drain(), which also checks the index against the
// blocks' states.
// ---------------------------------------------------------------------------

TEST_F(PrefixCacheTest, EqualCostVictimsLeaveInInsertionOrder) {
  // Three one-block prompts: same depth, so the same rebuild price.
  // Committed A, B, C but released C, B, A — the insertion tick, not the
  // release order, decides who goes first.
  CacheBinding bindings[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    KvBlockList l;
    run_prefill(shared_prefix_scenario(kBlockTokens, kBlockTokens, 8, 40 + i),
                i + 1, l, bindings[i]);
  }
  for (int i = 2; i >= 0; --i) cache_.release(bindings[i]);
  for (std::uint32_t gone = 0; gone < 3; ++gone) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(probe(cache_, 40 + i, 1).chain_blocks, i < gone ? 0u : 1u)
          << "after " << gone << " reclaims, prompt " << i;
    }
    EXPECT_EQ(cache_.reclaim(1), 1u);
  }
  EXPECT_EQ(cache_.reclaim(1), 0u);
  cache_.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
}

TEST_F(PrefixCacheTest, ReleasedBlockIsReclaimableUntilReacquired) {
  const workload::Scenario s =
      shared_prefix_scenario(kBlockTokens, kBlockTokens, 8, 50);
  KvBlockList l;
  CacheBinding b1;
  run_prefill(s, 1, l, b1);
  EXPECT_EQ(cache_.reclaim(1), 0u);  // referenced: not a candidate
  cache_.release(b1);                // refcount 0: a candidate

  const workload::Scenario longer =
      shared_prefix_scenario(kBlockTokens, kBlockTokens + 1, 8, 50);
  CacheBinding b2;
  ASSERT_EQ(
      cache_.acquire(longer, 2, longer.prefill, longer.prefill, b2)
          .chain_blocks,
      1u);
  EXPECT_EQ(cache_.reclaim(1), 0u);  // re-acquired: not a candidate again
  cache_.release(b2);
  EXPECT_EQ(cache_.reclaim(1), 1u);
  EXPECT_EQ(cache_.evict_blocks(), 1u);
  cache_.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
}

TEST_F(PrefixCacheTest, SwappedOutChildUnpinsItsParentAndRestoreRepinsIt) {
  PrefixCache swap_cache(kv_, costs_, /*swap_enabled=*/true);
  // A chain whose last two blocks, P (depth k) and its child C, both swap
  // out rather than discard.
  const std::uint32_t k = first_swapped_depth(swap_cache);
  const std::uint32_t n = k + 2;
  ASSERT_LE(n, kv_.capacity_blocks());
  const workload::Scenario s =
      shared_prefix_scenario(n * kBlockTokens, n * kBlockTokens, 8, 60);
  KvBlockList l;
  CacheBinding b1;
  run_prefill(s, 1, l, b1, &swap_cache);
  swap_cache.release(b1);

  // C is the only leaf. Once it swaps out, P is next — not one of P's
  // cheaper ancestors, which each still have a resident child.
  EXPECT_EQ(swap_cache.reclaim(1), 1u);
  EXPECT_EQ(probe(swap_cache, 60, n - 1).swapped_in, 0u);
  EXPECT_EQ(swap_cache.reclaim(1), 1u);
  EXPECT_EQ(swap_cache.swap_out_blocks(), 2u);
  const PrefixHit ancestors = probe(swap_cache, 60, n - 2);
  EXPECT_EQ(ancestors.chain_blocks, n - 2);
  EXPECT_EQ(ancestors.swapped_in, 0u);

  // Restoring the chain re-pins P under C: C is the next victim again,
  // though P costs no more to rebuild and is older.
  EXPECT_EQ(probe(swap_cache, 60, n).swapped_in, 2u);
  EXPECT_EQ(swap_cache.reclaim(1), 1u);
  EXPECT_EQ(probe(swap_cache, 60, n - 1).swapped_in, 0u);
  swap_cache.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
}

TEST_F(PrefixCacheTest, DedupAdoptingASwappedOutBlockRepinsItsParent) {
  PrefixCache swap_cache(kv_, costs_, /*swap_enabled=*/true);
  const std::uint32_t k = first_swapped_depth(swap_cache);
  const std::uint32_t n = k + 2;
  ASSERT_LE(n, kv_.capacity_blocks());
  const workload::Scenario s =
      shared_prefix_scenario(n * kBlockTokens, n * kBlockTokens, 8, 70);
  KvBlockList l1;
  CacheBinding b1;
  run_prefill(s, 1, l1, b1, &swap_cache);
  swap_cache.release(b1);
  EXPECT_EQ(swap_cache.reclaim(1), 1u);  // C, the last block, swaps out

  // A second request with the same prompt: its lookup stops one block
  // short (at least one token is always prefilled), so it recomputes C's
  // content and its commit adopts its own block as C's resident copy.
  KvBlockList l2;
  CacheBinding b2;
  const PrefixHit hit = run_prefill(s, 2, l2, b2, &swap_cache);
  EXPECT_EQ(hit.chain_blocks, n - 1);
  EXPECT_EQ(hit.swapped_in, 0u);
  EXPECT_EQ(swap_cache.dedup_blocks(), 1u);
  swap_cache.release(b2);

  // C pins its parent again, so C, not the parent, is the next victim.
  EXPECT_EQ(swap_cache.reclaim(1), 1u);
  EXPECT_EQ(swap_cache.swap_out_blocks(), 2u);
  EXPECT_EQ(probe(swap_cache, 70, n - 1).swapped_in, 0u);
  swap_cache.drain();
  EXPECT_EQ(kv_.used_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// Cache-on end-to-end determinism
// ---------------------------------------------------------------------------

TEST(PrefixCacheDeterminism, CacheOnRunTwiceIsIdentical) {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = model::cosim_config();
  cfg.model.max_seq_len = 256;
  cfg.cost_probe_stride = 16;
  ChatTrafficConfig chat;
  chat.conversations = 3;
  chat.turns = 3;
  chat.system_prompt_tokens = 24;
  chat.user_turn_tokens = 8;
  chat.reply_tokens = 8;
  cfg.traffic.scripted_shapes = chat_turn_shapes(chat);
  cfg.traffic.num_requests =
      static_cast<std::uint32_t>(cfg.traffic.scripted_shapes.size());
  cfg.traffic.arrival_rate_per_s = 900.0;
  cfg.traffic.seed = 17;
  cfg.scheduler.max_batch = 4;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeCostAware;
  cfg.kv_block_tokens = 4;
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 96 * probe.bytes_per_token_per_node();
  cfg.prefix_cache = true;
  cfg.kv_swap = true;
  cfg.keep_request_records = true;

  const FleetMetrics a = ServingSim(cfg).run();
  const FleetMetrics b = ServingSim(cfg).run();
  EXPECT_GT(a.cache_hit_tokens, 0u);  // non-vacuous
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cache_hit_tokens, b.cache_hit_tokens);
  EXPECT_EQ(a.cache_insert_blocks, b.cache_insert_blocks);
  EXPECT_EQ(a.cache_evict_blocks, b.cache_evict_blocks);
  EXPECT_EQ(a.cache_swap_out_blocks, b.cache_swap_out_blocks);
  EXPECT_EQ(a.saved_prefill_cycles, b.saved_prefill_cycles);
  EXPECT_EQ(a.prefill_cycles, b.prefill_cycles);
  EXPECT_EQ(a.kv_blocks_in_use_at_end, 0u);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].cached_prefix_tokens,
              b.requests[i].cached_prefix_tokens);
    EXPECT_DOUBLE_EQ(a.requests[i].e2e_ms, b.requests[i].e2e_ms);
  }
}

/// kv_swap without prefix_cache is a configuration error, not a silent
/// no-op.
TEST(PrefixCacheDeterminism, KvSwapRequiresPrefixCache) {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = model::cosim_config();
  cfg.kv_swap = true;
  EXPECT_THROW(ServingSim sim(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace looplynx::serve
