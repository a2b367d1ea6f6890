// util::SlotMap unit tests — insert/erase/recycle, generation-bump stale
// handle invalidation, deterministic iteration, address stability — plus
// the two pins the serve hot path rests on:
//  - a fuzz-style churn test that counts global operator new calls and
//    proves steady-state insert/erase cycles never touch the heap (the CI
//    ASan/UBSan leg runs this same test under sanitizers, so a stale-slot
//    access or leak fails there too);
//  - a serve-side run under preemption/recompute pressure, where requests
//    are recycled through the arena while coroutines and scheduler lists
//    hold references across suspension points — any handle-stability bug
//    is a use-after-free ASan catches.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "util/slot_map.hpp"
#include "workload/mix.hpp"

// ---- Global allocation counter ------------------------------------------
// Replacing the global allocation functions lets the churn test assert the
// exact number of heap allocations a window of operations performed.
// Counting is a plain increment: the tests are single-threaded.
namespace {
std::uint64_t g_news = 0;
}

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Kept out of line: inlined into a delete-expression, the std::free would
// meet a pointer GCC knows came from operator new, which it reports as a
// mismatched deallocation (-Wmismatched-new-delete) although these
// replacements pair malloc with free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace looplynx::util {
namespace {

struct Payload {
  std::uint64_t value = 0;
  std::uint64_t pad[7] = {};  // cache-line-ish, like a real arena object
  explicit Payload(std::uint64_t v) : value(v) {}
};

TEST(SlotMap, InsertEraseRecycleLifo) {
  SlotMap<Payload> map;
  auto [h0, r0] = map.emplace(10);
  auto [h1, r1] = map.emplace(11);
  auto [h2, r2] = map.emplace(12);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(h0.index, 0u);
  EXPECT_EQ(h1.index, 1u);
  EXPECT_EQ(h2.index, 2u);

  // Erase middle, then last: the free list is LIFO, so the next two
  // inserts reuse slot 2 first, then slot 1 — and never slot 3.
  EXPECT_TRUE(map.erase(h1));
  EXPECT_TRUE(map.erase(h2));
  EXPECT_EQ(map.size(), 1u);
  auto [h3, r3] = map.emplace(13);
  auto [h4, r4] = map.emplace(14);
  EXPECT_EQ(h3.index, 2u);
  EXPECT_EQ(h4.index, 1u);
  EXPECT_EQ(map.capacity_slots(), 3u);  // no fresh slot was handed out
  EXPECT_EQ(map.get(h3)->value, 13u);
  EXPECT_EQ(map.get(h4)->value, 14u);
  EXPECT_EQ(map.get(h0)->value, 10u);
}

TEST(SlotMap, GenerationBumpInvalidatesStaleHandles) {
  SlotMap<Payload> map;
  auto [h, r] = map.emplace(1);
  EXPECT_TRUE(map.erase(h));
  // The handle outlived its object: lookups miss, a second erase is a
  // no-op, and the recycled slot's new tenant is not visible through it.
  EXPECT_EQ(map.get(h), nullptr);
  EXPECT_FALSE(map.erase(h));
  auto [h2, r2] = map.emplace(2);
  EXPECT_EQ(h2.index, h.index);
  EXPECT_NE(h2.generation, h.generation);
  EXPECT_EQ(map.get(h), nullptr);
  EXPECT_EQ(map.get(h2)->value, 2u);
}

TEST(SlotMap, AddressesStableAcrossGrowth) {
  SlotMap<Payload, 16> map;  // small chunks force several allocations
  std::vector<Payload*> addresses;
  std::vector<SlotHandle> handles;
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto [h, ref] = map.emplace(i);
    handles.push_back(h);
    addresses.push_back(&ref);
  }
  // Growth must never move existing objects (coroutines hold Request&
  // across suspension points).
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(map.get(handles[i]), addresses[i]);
    EXPECT_EQ(addresses[i]->value, i);
  }
}

TEST(SlotMap, ChurnIsAllocationFreeInSteadyState) {
  SlotMap<Payload> map;
  // Deterministic fuzz: a 64-bit LCG drives interleaved insert/erase with
  // live-set verification. First push to the peak live count...
  constexpr std::size_t kPeak = 600;  // spans 3 chunks of 256
  std::vector<std::pair<SlotHandle, std::uint64_t>> live;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const auto next = [&] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  std::uint64_t ticket = 0;
  for (std::size_t i = 0; i < kPeak; ++i) {
    live.emplace_back(map.emplace(ticket).first, ticket);
    ++ticket;
  }
  // ...drain and refill once, so the internal free list (and this test's
  // own live vector) reach their high-water capacity — that growth is the
  // one-time warm-up cost, not steady state...
  while (!live.empty()) {
    ASSERT_TRUE(map.erase(live.back().first));
    live.pop_back();
  }
  for (std::size_t i = 0; i < kPeak; ++i) {
    live.emplace_back(map.emplace(ticket).first, ticket);
    ++ticket;
  }

  // ...then churn at or below the peak: every allocation in this window
  // would be a per-request heap allocation in the serve hot path.
  const std::uint64_t news_before = g_news;
  for (std::size_t step = 0; step < 200000; ++step) {
    const bool insert = live.empty() || (live.size() < kPeak && next() % 2);
    if (insert) {
      live.emplace_back(map.emplace(ticket).first, ticket);
      ++ticket;
    } else {
      const std::size_t victim = next() % live.size();
      ASSERT_TRUE(map.erase(live[victim].first));
      live[victim] = live.back();
      live.pop_back();
    }
    if (step % 4096 == 0 && !live.empty()) {
      const auto& [h, expect] = live[next() % live.size()];
      const Payload* p = map.get(h);
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(p->value, expect);
    }
  }
  EXPECT_EQ(g_news - news_before, 0u);  // zero steady-state allocations
  EXPECT_EQ(map.chunk_count(), 3u);     // and no hidden chunk growth
  EXPECT_EQ(map.capacity_slots(), kPeak);
  EXPECT_EQ(map.size(), live.size());
}

}  // namespace
}  // namespace looplynx::util

namespace looplynx::serve {
namespace {

/// Preemption/recompute pressure over the arena: a tight paged-KV budget
/// forces recompute-youngest evictions, so requests bounce between the
/// ready classes, the deferred list and the batch while their slots sit in
/// the recycled arena. Any stale handle or pointer into a recycled slot is
/// a use-after-free the CI sanitizer leg converts into a hard failure; the
/// conservation checks prove every recycled request still completed
/// exactly once.
TEST(SlotMapServe, HandleStabilityAcrossPreemption) {
  ServingConfig base;
  base.arch = core::ArchConfig::one_node();
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  base.model = m;
  base.cost_probe_stride = 16;
  base.traffic.mix = workload::Mix{"skewed",
                                   {{workload::make_scenario(8, 16), 0.7},
                                    {workload::make_scenario(192, 48), 0.2},
                                    {workload::make_scenario(4, 40), 0.1}}};
  base.traffic.num_requests = 400;
  base.traffic.arrival_rate_per_s = 1200.0;
  base.traffic.seed = 7;
  base.scheduler.max_batch = 4;
  base.scheduler.max_in_flight = 6;
  base.scheduler.policy = BatchPolicy::kChunkedMixed;
  base.scheduler.max_tokens_per_iter = 16;
  base.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  base.kv_block_tokens = 4;
  KvBlockManager probe(base.arch, base.model, 1);
  base.kv_budget_bytes_per_node = 56 * probe.bytes_per_token_per_node();
  base.keep_request_records = true;

  const FleetConfig cfg =
      FleetConfig::homogeneous(base, 1, BalancerPolicy::kRoundRobin);
  const FleetResult r = FleetSim(cfg).run();

  EXPECT_GT(r.fleet.preemptions, 0u);  // the pressure is not vacuous
  EXPECT_EQ(r.fleet.completed + r.fleet.rejected, r.fleet.offered);
  EXPECT_EQ(r.fleet.offered, 400u);
  EXPECT_EQ(r.fleet.kv_blocks_in_use_at_end, 0u);
  ASSERT_EQ(r.fleet.requests.size(), 400u);
  for (std::size_t i = 0; i < r.fleet.requests.size(); ++i) {
    const RequestRecord& rec = r.fleet.requests[i];
    EXPECT_EQ(rec.id, i);  // id-sorted and gap-free: nothing lost/duplicated
    if (rec.rejected) continue;
    EXPECT_LE(rec.admitted, rec.first_token);
    EXPECT_LE(rec.first_token, rec.completed);
  }
}

}  // namespace
}  // namespace looplynx::serve
