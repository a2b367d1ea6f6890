// Tests for the continuous-batching serve layer: step-cost model, paged
// KV-block accounting, traffic generation, scheduler policies + preemption,
// fleet determinism and backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

core::ArchConfig test_arch() { return core::ArchConfig::one_node(); }

/// Cosim dimensions with a context window wide enough for the [128:*]
/// long-prompt chunking scenarios.
model::ModelConfig chunk_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

/// Marks a request's whole prompt as pushed (decode-ready).
void mark_prefilled(Request& r) { r.prompt_done = r.shape.prefill; }

/// Small shapes that fit the cosim model's 96-token context.
workload::Mix test_mix() {
  return workload::Mix{"test",
                       {{workload::make_scenario(8, 16), 0.5},
                        {workload::make_scenario(16, 8), 0.3},
                        {workload::make_scenario(4, 32), 0.2}}};
}

ServingConfig base_config() {
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = test_mix();
  cfg.traffic.num_requests = 24;
  cfg.traffic.arrival_rate_per_s = 200.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  return cfg;
}

// ---------------------------------------------------------------- StepCost

/// The six arch variants the identity test sweeps: 1/2/4 nodes, each with
/// the default switches and with every optimization off.
std::vector<core::ArchConfig> identity_archs() {
  std::vector<core::ArchConfig> archs;
  for (std::uint32_t n : {1u, 2u, 4u}) {
    archs.push_back(core::ArchConfig::nodes(n));
    archs.push_back(core::ArchConfig::nodes(n).without_optimizations());
  }
  return archs;
}

/// Expects the exact (stride-1) table to equal the full-pipeline DES at
/// every `every`-th position and at the last one.
void expect_exact_table(const core::ArchConfig& arch,
                        const model::ModelConfig& m, std::uint32_t every) {
  const core::System sys(arch, m);
  const core::StepCostModel costs(sys, /*probe_stride=*/1);
  for (std::uint32_t pos = 0; pos < m.max_seq_len; ++pos) {
    if (pos % every != 0 && pos + 1 != m.max_seq_len) continue;
    ASSERT_EQ(costs.step_cycles(pos), sys.token_cycles(pos))
        << m.name << " on " << arch.num_nodes << " node(s), fuse_ln_res="
        << arch.fuse_ln_res << ", pos " << pos;
  }
}

TEST(StepCostModelTest, ExactStrideMatchesSystemTokenCycles) {
  // The per-layer probes must reproduce the full-depth pipeline position
  // by position, with and without the optimizations.
  for (const core::ArchConfig& arch : identity_archs()) {
    expect_exact_table(arch, model::cosim_config(), 1);
    expect_exact_table(arch, model::gpt2_medium(), 16);
  }
  // Ring latency far above a stage, and four times the MP blocks (sampled
  // more sparsely: each of its full-pipeline runs is four times longer).
  core::ArchConfig slow_ring = core::ArchConfig::nodes(4);
  slow_ring.inter_fpga_hop_cycles = 2048;
  expect_exact_table(slow_ring, model::gpt2_medium(), 16);
  core::ArchConfig small_blocks = core::ArchConfig::nodes(4);
  small_blocks.mp_block_rows = 32;
  expect_exact_table(small_blocks, model::gpt2_medium(), 64);
}

TEST(StepCostModelTest, StridedTableInterpolatesFullPipelineProbes) {
  const model::ModelConfig m = model::cosim_config();
  const core::System sys(core::ArchConfig::nodes(2), m);
  const std::uint32_t stride = 16;
  const core::StepCostModel costs(sys, stride);
  for (std::uint32_t lo = 0; lo + 1 < m.max_seq_len; lo += stride) {
    const std::uint32_t hi = std::min(lo + stride, m.max_seq_len - 1);
    const double a = static_cast<double>(sys.token_cycles(lo));
    const double b = static_cast<double>(sys.token_cycles(hi));
    for (std::uint32_t pos = lo; pos < hi; ++pos) {
      const double t = static_cast<double>(pos - lo) /
                       static_cast<double>(hi - lo);
      EXPECT_EQ(costs.step_cycles(pos),
                static_cast<sim::Cycles>(a * (1.0 - t) + b * t))
          << pos;
    }
  }
  EXPECT_EQ(costs.step_cycles(m.max_seq_len - 1),
            sys.token_cycles(m.max_seq_len - 1));
}

TEST(StepCostModelTest, RejectsZeroStride) {
  EXPECT_THROW(core::StepCostModel(test_arch(), model::cosim_config(), 0),
               std::invalid_argument);
}

TEST(StepCostModelTest, PrefillIsPrefixSumOfSteps) {
  const core::StepCostModel costs(test_arch(), model::cosim_config(),
                                  /*probe_stride=*/16);
  EXPECT_EQ(costs.prefill_cycles(0), 0u);
  sim::Cycles acc = 0;
  for (std::uint32_t pos = 0; pos < 24; ++pos) acc += costs.step_cycles(pos);
  EXPECT_EQ(costs.prefill_cycles(24), acc);
}

TEST(StepCostModelTest, CostGrowsWithKvLength) {
  const core::StepCostModel costs(test_arch(), model::cosim_config(),
                                  /*probe_stride=*/16);
  EXPECT_GT(costs.step_cycles(costs.max_positions() - 1),
            costs.step_cycles(0));
  EXPECT_GT(costs.prefill_cycles(64), costs.prefill_cycles(8));
}

TEST(StepCostModelTest, ChunkCostsPartitionThePrefill) {
  const core::StepCostModel costs(test_arch(), model::cosim_config(),
                                  /*probe_stride=*/16);
  // A chunk resumes against cached KV: positions are priced at their true
  // offsets, so any partition of the prompt sums to the whole prefill.
  EXPECT_EQ(costs.prefill_chunk_cycles(0, 64), costs.prefill_cycles(64));
  EXPECT_EQ(costs.prefill_chunk_cycles(0, 16) +
                costs.prefill_chunk_cycles(16, 16) +
                costs.prefill_chunk_cycles(32, 32),
            costs.prefill_cycles(64));
  EXPECT_EQ(costs.prefill_chunk_cycles(24, 0), 0u);
  // Continuation chunks run at deeper KV offsets, so the tail chunk of a
  // prompt costs at least as much as its head chunk.
  EXPECT_GE(costs.prefill_chunk_cycles(48, 16),
            costs.prefill_chunk_cycles(0, 16));
}

TEST(StepCostModelTest, DecodeBatchSharesWeightStream) {
  const core::StepCostModel costs(test_arch(), model::cosim_config(),
                                  /*probe_stride=*/16);
  // Lone step: exact identity with the per-position table.
  EXPECT_EQ(costs.decode_batch_cycles({10}), costs.step_cycles(10));
  // A shared pass is cheaper than running the members back to back but
  // can never beat the compute bound.
  const std::vector<std::uint32_t> batch{10, 20, 30, 40};
  sim::Cycles sequential = 0;
  for (std::uint32_t pos : batch) sequential += costs.step_cycles(pos);
  const sim::Cycles shared = costs.decode_batch_cycles(batch);
  EXPECT_LT(shared, sequential);
  EXPECT_GE(shared, static_cast<sim::Cycles>(batch.size()) *
                        costs.weight_mac_cycles());
}

TEST(StepCostModelTest, DecodeRunCyclesSumClampedSteps) {
  const core::StepCostModel costs(test_arch(), model::cosim_config(),
                                  /*probe_stride=*/16);
  const std::uint32_t last = costs.max_positions() - 1;
  // Runs inside the table, up to its edge and past it (positions clamp to
  // the last one, as the scheduler prices them), and starting past it.
  for (const std::uint32_t pos : {0u, 7u, last - 5, last, last + 3}) {
    for (const std::uint32_t k : {0u, 1u, 5u, 12u}) {
      sim::Cycles want = 0;
      for (std::uint32_t i = 0; i < k; ++i) {
        want += costs.step_cycles(std::min(pos + i, last));
      }
      EXPECT_EQ(costs.decode_run_cycles(pos, k), want)
          << "pos " << pos << ", k " << k;
    }
  }
}

TEST(SingleReplicaTest, LargerBatchRaisesSaturatedThroughput) {
  ServingConfig cfg = base_config();
  cfg.traffic.arrival_rate_per_s = 50000.0;  // saturating burst
  cfg.scheduler.max_batch = 1;
  const FleetMetrics serial =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  cfg.scheduler.max_batch = 8;
  const FleetMetrics batched =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_GT(batched.decode_tok_s, serial.decode_tok_s);
  EXPECT_GT(batched.mean_batch_size, serial.mean_batch_size);
}

// ---------------------------------------------------------------- KvBlocks

TEST(KvBlockManagerTest, TokenGranularCapacityFollowsBudget) {
  const model::ModelConfig m = model::cosim_config();  // 3 layers, 8 heads, 8 dim
  const core::ArchConfig arch = test_arch();
  // K+V int8: 2 * 3 * 8 * 8 = 384 bytes per token on the single node.
  // block_tokens 1 == the legacy token-granular accounting.
  KvBlockManager kv(arch, m, /*budget=*/384 * 10);
  EXPECT_EQ(kv.bytes_per_token_per_node(), 384u);
  EXPECT_EQ(kv.block_tokens(), 1u);
  EXPECT_EQ(kv.capacity_blocks(), 10u);
  EXPECT_EQ(kv.capacity_tokens(), 10u);

  KvBlockList a, b;
  EXPECT_TRUE(kv.try_grow(a, 6));
  EXPECT_FALSE(kv.try_grow(b, 5));  // only 4 blocks left
  EXPECT_EQ(b.blocks, 0u);          // untouched on failure
  EXPECT_EQ(kv.stall_events(), 1u);
  EXPECT_TRUE(kv.try_grow(b, 4));
  EXPECT_EQ(kv.used_blocks(), 10u);
  EXPECT_DOUBLE_EQ(kv.peak_occupancy(), 1.0);
  EXPECT_EQ(kv.frag_tokens(), 0u);  // token granularity never fragments
  kv.release_all(a);
  EXPECT_EQ(a.blocks, 0u);
  EXPECT_EQ(kv.free_blocks(), 6u);
  EXPECT_FALSE(kv.can_ever_fit(11));
  EXPECT_TRUE(kv.can_ever_fit(10));
}

TEST(KvBlockManagerTest, GrowIsIncrementalNotCumulative) {
  KvBlockManager kv(test_arch(), model::cosim_config(), /*budget=*/384 * 10);
  KvBlockList list;
  ASSERT_TRUE(kv.try_grow(list, 4));
  // Growing the same list to a larger target only takes the delta; a
  // target already covered is a no-op.
  ASSERT_TRUE(kv.try_grow(list, 7));
  EXPECT_EQ(kv.used_blocks(), 7u);
  ASSERT_TRUE(kv.try_grow(list, 7));
  ASSERT_TRUE(kv.try_grow(list, 2));  // shrink request: covered, no-op
  EXPECT_EQ(kv.used_blocks(), 7u);
  EXPECT_EQ(list.committed_tokens, 7u);
}

TEST(KvBlockManagerTest, BlockRoundingAndFragmentation) {
  // 10-token budget at 4 tokens/block -> 2 whole blocks (8 tokens); the
  // 2-token remainder is unusable (paging's capacity cost).
  KvBlockManager kv(test_arch(), model::cosim_config(), /*budget=*/384 * 10,
                    /*block_tokens=*/4);
  EXPECT_EQ(kv.capacity_blocks(), 2u);
  EXPECT_EQ(kv.capacity_tokens(), 8u);
  EXPECT_EQ(kv.blocks_for(1), 1u);
  EXPECT_EQ(kv.blocks_for(4), 1u);
  EXPECT_EQ(kv.blocks_for(5), 2u);
  EXPECT_TRUE(kv.can_ever_fit(8));
  EXPECT_FALSE(kv.can_ever_fit(9));

  KvBlockList list, other;
  ASSERT_TRUE(kv.try_grow(list, 5));
  EXPECT_EQ(list.blocks, 2u);
  EXPECT_EQ(kv.used_blocks(), 2u);
  // Internal fragmentation: 2 blocks cover 8 tokens, 5 are committed.
  EXPECT_EQ(kv.frag_tokens(), 3u);
  EXPECT_FALSE(kv.try_grow(other, 1));  // pool exhausted by rounding
  ASSERT_TRUE(kv.try_grow(list, 7));    // same blocks, deeper commit
  EXPECT_EQ(kv.frag_tokens(), 1u);
  EXPECT_EQ(kv.peak_frag_tokens(), 3u);
  kv.release_all(list);
  EXPECT_EQ(kv.used_blocks(), 0u);
  EXPECT_EQ(kv.frag_tokens(), 0u);
  EXPECT_EQ(kv.live_tokens(), 0u);
}

TEST(KvBlockManagerTest, StepwiseGrowMatchesOneTokenGrows) {
  // grow_stepwise must leave exactly what one-token try_grow calls leave,
  // peaks included, whatever the other lists' fragmentation and wherever
  // the list's tail sits in its block.
  const model::ModelConfig m = model::cosim_config();
  util::Rng rng(7);
  for (const std::uint32_t bt : {1u, 3u, 4u, 16u}) {
    for (int draw = 0; draw < 200; ++draw) {
      KvBlockManager a(test_arch(), m, 0, bt);
      KvBlockList other_a, list_a;
      const auto other_tokens =
          static_cast<std::uint32_t>(rng.uniform_int(0, 40));
      const auto from = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
      const auto to = from + static_cast<std::uint32_t>(rng.uniform_int(0, 40));
      ASSERT_TRUE(a.try_grow(other_a, other_tokens));
      ASSERT_TRUE(a.try_grow(list_a, from));
      KvBlockManager b = a;
      KvBlockList list_b = list_a;
      for (std::uint32_t t = from + 1; t <= to; ++t) {
        ASSERT_TRUE(a.try_grow(list_a, t));
      }
      b.grow_stepwise(list_b, to);
      SCOPED_TRACE(::testing::Message() << "bt " << bt << ", others "
                                        << other_tokens << ", " << from
                                        << " -> " << to);
      EXPECT_EQ(list_b.blocks, list_a.blocks);
      EXPECT_EQ(list_b.committed_tokens, list_a.committed_tokens);
      EXPECT_EQ(b.used_blocks(), a.used_blocks());
      EXPECT_EQ(b.live_tokens(), a.live_tokens());
      EXPECT_EQ(b.peak_used_blocks(), a.peak_used_blocks());
      EXPECT_EQ(b.peak_frag_tokens(), a.peak_frag_tokens());
      EXPECT_EQ(b.stall_events(), a.stall_events());
    }
  }
}

TEST(KvBlockManagerTest, OverReleaseClampsInsteadOfWrapping) {
  const model::ModelConfig m = model::cosim_config();
  KvBlockManager kv(test_arch(), m, /*budget=*/384 * 10);
  KvBlockList list;
  ASSERT_TRUE(kv.try_grow(list, 4));
  // Releasing blocks the manager never handed out (a tampered or
  // double-released list) would underflow used_blocks_ and wrap
  // free_blocks() to ~4 billion, disabling admission backpressure forever
  // after. Pin the clamp, and the counter that makes the caller bug
  // observable instead of silently swallowed.
  list.blocks = 7;
  kv.release_all(list);
  EXPECT_EQ(kv.used_blocks(), 0u);
  EXPECT_EQ(kv.free_blocks(), kv.capacity_blocks());  // no wrap
  EXPECT_EQ(kv.over_release_events(), 1u);
  // The manager still works after the bad release.
  KvBlockList again;
  EXPECT_TRUE(kv.try_grow(again, 10));
  KvBlockList more;
  EXPECT_FALSE(kv.try_grow(more, 1));
  kv.release_all(again);
  EXPECT_EQ(kv.over_release_events(), 1u);  // correct releases not counted
}

TEST(KvBlockManagerTest, DefaultBudgetUsesKvChannels) {
  const core::ArchConfig arch = core::ArchConfig::two_node();  // kv_channels=2
  KvBlockManager kv(arch, model::gpt2_medium());
  // 2 channels x 256 MiB / (2 * 24 layers * 8 heads/node * 64 dim).
  EXPECT_EQ(kv.bytes_per_token_per_node(), 24576u);
  EXPECT_EQ(kv.capacity_tokens(), (512ull << 20) / 24576u);
}

TEST(KvBlockManagerTest, RejectsZeroBlockTokens) {
  EXPECT_THROW(KvBlockManager(test_arch(), model::cosim_config(), 384,
                              /*block_tokens=*/0),
               std::invalid_argument);
}

// ----------------------------------------------------------------- Traffic

TEST(TrafficGenTest, PoissonScheduleIsDeterministicAndSorted) {
  TrafficConfig cfg;
  cfg.mix = test_mix();
  cfg.num_requests = 50;
  cfg.arrival_rate_per_s = 100.0;
  cfg.seed = 7;
  TrafficGen a(cfg, 285e6), b(cfg, 285e6);
  const auto sa = a.open_loop_schedule();
  const auto sb = b.open_loop_schedule();
  ASSERT_EQ(sa.size(), 50u);
  EXPECT_TRUE(std::is_sorted(
      sa.begin(), sa.end(),
      [](const Arrival& x, const Arrival& y) { return x.at < y.at; }));
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].at, sb[i].at);
    EXPECT_EQ(sa[i].shape.name, sb[i].shape.name);
  }
}

TEST(TrafficGenTest, BurstyScheduleClustersArrivals) {
  TrafficConfig cfg;
  cfg.process = ArrivalProcess::kBursty;
  cfg.mix = test_mix();
  cfg.num_requests = 200;
  cfg.arrival_rate_per_s = 50.0;
  cfg.burst_factor = 4.0;
  cfg.burst_fraction = 0.25;
  cfg.seed = 11;
  TrafficGen gen(cfg, 285e6);
  const auto schedule = gen.open_loop_schedule();
  ASSERT_EQ(schedule.size(), 200u);
  // Arrivals inside the on-phase (first quarter of each 2 s period) should
  // be heavily over-represented relative to the 25% of time it covers.
  std::size_t on_phase = 0;
  for (const Arrival& a : schedule) {
    const double t = static_cast<double>(a.at) / 285e6;
    if (std::fmod(t, cfg.burst_period_s) < cfg.burst_period_s * 0.25) {
      ++on_phase;
    }
  }
  EXPECT_GT(on_phase, schedule.size() / 2);
}

TEST(TrafficGenTest, RejectsDegenerateBurstParameters) {
  TrafficConfig cfg;
  cfg.process = ArrivalProcess::kBursty;
  cfg.mix = test_mix();
  cfg.burst_period_s = 0.0;  // would otherwise loop forever on fmod(t, 0)
  EXPECT_THROW(TrafficGen(cfg, 285e6), std::invalid_argument);
  cfg.burst_period_s = 2.0;
  cfg.burst_fraction = 1.0;
  EXPECT_THROW(TrafficGen(cfg, 285e6), std::invalid_argument);
}

TEST(TrafficGenTest, RejectsArrivalsPastTheCycleClock) {
  TrafficConfig cfg;
  cfg.mix = test_mix();
  cfg.arrival_rate_per_s = 1e-300;  // first arrival ~1e300 s out
  EXPECT_THROW(TrafficGen(cfg, 285e6).open_loop_schedule(),
               std::invalid_argument);
  // A NaN stamp fails the same bound.
  cfg.arrival_rate_per_s = 4.0;
  EXPECT_THROW(TrafficGen(cfg, std::numeric_limits<double>::quiet_NaN())
                   .open_loop_schedule(),
               std::invalid_argument);
  // An ordinary rate stays well inside it.
  EXPECT_EQ(TrafficGen(cfg, 285e6).open_loop_schedule().size(),
            cfg.num_requests);
}

TEST(TrafficGenTest, ExplicitArrivalsOverrideProcess) {
  TrafficConfig cfg;
  cfg.mix = test_mix();
  cfg.explicit_arrivals = {{0, workload::make_scenario(4, 4)},
                           {100, workload::make_scenario(8, 8)}};
  TrafficGen gen(cfg, 285e6);
  const auto schedule = gen.open_loop_schedule();
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[1].at, 100u);
}

TEST(MixTest, SamplingCoversEntriesDeterministically) {
  const workload::Mix mix = test_mix();
  EXPECT_EQ(mix.sample(0.0).name, "[8:16]");
  EXPECT_EQ(mix.sample(0.6).name, "[16:8]");
  EXPECT_EQ(mix.sample(0.999).name, "[4:32]");
  EXPECT_NEAR(mix.mean_tokens_per_request(),
              0.5 * 24 + 0.3 * 24 + 0.2 * 36, 1e-12);
}

// --------------------------------------------------------------- Scheduler

/// Links `order` onto `ready` in sequence: push order is FIFO stamp order.
void fill(ReadyQueue& ready, const std::vector<Request*>& order) {
  for (Request* r : order) ready.push_back(r);
}

/// One Scheduler::select pass over `ready` into a fresh batch.
std::vector<ScheduledStep> select(const Scheduler& sched, ReadyQueue& ready) {
  std::vector<ScheduledStep> batch;
  sched.select(ready, batch);
  return batch;
}

/// The members still linked on one ReadyQueue class list, head to tail.
std::vector<Request*> members(const RequestList<kReadyChannel>& list) {
  std::vector<Request*> out;
  for (Request* r = list.head; r != nullptr; r = r->link_next[kReadyChannel]) {
    out.push_back(r);
  }
  return out;
}

TEST(SchedulerTest, PrefillPriorityPicksPrefillsFirst) {
  Request p1(0, workload::make_scenario(8, 8));
  Request p2(1, workload::make_scenario(8, 8));
  Request d1(2, workload::make_scenario(8, 8));
  mark_prefilled(d1);
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.policy = BatchPolicy::kPrefillPriority;
  Scheduler sched(cfg);
  ReadyQueue ready;
  fill(ready, {&d1, &p1, &p2});
  const auto batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request, &p1);
  EXPECT_EQ(batch[0].prompt_tokens, 8u);  // whole prompt under this policy
  EXPECT_EQ(batch[1].request, &p2);
  EXPECT_EQ(members(ready.decodes), std::vector<Request*>{&d1});
  EXPECT_TRUE(ready.started.empty());
  EXPECT_TRUE(ready.fresh.empty());
}

TEST(SchedulerTest, DecodePriorityPicksDecodesFirst) {
  Request p1(0, workload::make_scenario(8, 8));
  Request d1(1, workload::make_scenario(8, 8));
  Request d2(2, workload::make_scenario(8, 8));
  mark_prefilled(d1);
  mark_prefilled(d2);
  SchedulerConfig cfg;
  cfg.max_batch = 3;
  cfg.policy = BatchPolicy::kDecodePriority;
  Scheduler sched(cfg);
  ReadyQueue ready;
  fill(ready, {&p1, &d1, &d2});
  const auto batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request, &d1);
  EXPECT_EQ(batch[0].prompt_tokens, 0u);
  EXPECT_EQ(batch[1].request, &d2);
  EXPECT_EQ(batch[2].request, &p1);
  EXPECT_EQ(batch[2].prompt_tokens, 8u);
  EXPECT_TRUE(ready.empty());
}

TEST(SchedulerTest, ChunkedMixedSplitsPromptsUnderBudget) {
  Request d1(0, workload::make_scenario(8, 8));
  Request d2(1, workload::make_scenario(8, 8));
  Request p1(2, workload::make_scenario(30, 4));
  mark_prefilled(d1);
  mark_prefilled(d2);
  SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_tokens_per_iter = 12;
  cfg.policy = BatchPolicy::kChunkedMixed;
  Scheduler sched(cfg);

  // Iteration 1: both decodes (1 token each), then a 10-token chunk.
  ReadyQueue ready;
  fill(ready, {&p1, &d1, &d2});
  auto batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request, &d1);
  EXPECT_EQ(batch[1].request, &d2);
  EXPECT_EQ(batch[2].request, &p1);
  EXPECT_EQ(batch[2].prompt_tokens, 10u);
  EXPECT_TRUE(ready.empty());

  // The sim advances the cursor at step execution; emulate it here.
  p1.prompt_done += 10;
  ready.push_back(&p1);
  batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].prompt_tokens, 12u);  // full budget, nothing else runs
  p1.prompt_done += 12;

  // Final chunk takes only what remains.
  ready.push_back(&p1);
  batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].prompt_tokens, 8u);
  p1.prompt_done += 8;
  EXPECT_TRUE(p1.prefilled());
}

TEST(SchedulerTest, ChunkedMixedFinishesHeadPromptBeforeStartingNext) {
  Request a(0, workload::make_scenario(40, 4));
  Request b(1, workload::make_scenario(40, 4));
  SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_tokens_per_iter = 16;
  cfg.policy = BatchPolicy::kChunkedMixed;
  Scheduler sched(cfg);

  ReadyQueue ready;
  fill(ready, {&a, &b});
  auto batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request, &a);
  a.prompt_done += batch[0].prompt_tokens;

  // The sim re-queues a mid-chunk prompt at the *back* of the ready pool
  // (behind b); a partially prefilled prompt must still outrank the fresh
  // one, so chunks do not round-robin and b's KV wait stays one prompt
  // deep.
  ready.push_back(&a);
  batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request, &a);
  a.prompt_done += batch[0].prompt_tokens;
  EXPECT_EQ(a.prompt_done, 32u);
  EXPECT_EQ(members(ready.fresh), std::vector<Request*>{&b});
  EXPECT_TRUE(ready.started.empty());

  // Once a's final chunk (8 tokens) is taken, leftover budget starts b.
  ready.push_back(&a);
  batch = select(sched, ready);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request, &a);
  EXPECT_EQ(batch[0].prompt_tokens, 8u);
  EXPECT_EQ(batch[1].request, &b);
  EXPECT_EQ(batch[1].prompt_tokens, 8u);
}

TEST(SchedulerTest, ChunkedMixedNeverExceedsTokenBudget) {
  std::vector<std::unique_ptr<Request>> pool;
  ReadyQueue ready;
  for (std::uint32_t i = 0; i < 6; ++i) {
    pool.push_back(
        std::make_unique<Request>(i, workload::make_scenario(16 + i, 8)));
    if (i % 2 == 0) mark_prefilled(*pool.back());
    ready.push_back(pool.back().get());
  }
  SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_tokens_per_iter = 7;
  cfg.policy = BatchPolicy::kChunkedMixed;
  Scheduler sched(cfg);
  const auto batch = select(sched, ready);
  std::uint32_t tokens = 0;
  for (const ScheduledStep& s : batch) {
    tokens += s.is_prefill() ? s.prompt_tokens : 1;
  }
  EXPECT_LE(tokens, 7u);
  EXPECT_FALSE(batch.empty());
}

// ------------------------------------------------------- CLI flag parsing

TEST(BatchPolicyCliTest, ParseBatchPolicyRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_batch_policy("prefill"), BatchPolicy::kPrefillPriority);
  EXPECT_EQ(parse_batch_policy("decode"), BatchPolicy::kDecodePriority);
  EXPECT_EQ(parse_batch_policy("chunked"), BatchPolicy::kChunkedMixed);
  EXPECT_THROW(parse_batch_policy("fifo"), std::invalid_argument);
  EXPECT_THROW(parse_batch_policy(""), std::invalid_argument);
  EXPECT_THROW(parse_batch_policy("Prefill"), std::invalid_argument);
}

TEST(BatchPolicyCliTest, DefaultChunkTokensPerPolicy) {
  // Only kChunkedMixed gets a budget by default: it cannot chunk without
  // one, while the whole-prompt policies stay unbounded (pre-chunking
  // behavior).
  EXPECT_EQ(default_chunk_tokens(BatchPolicy::kChunkedMixed), 64u);
  EXPECT_EQ(default_chunk_tokens(BatchPolicy::kPrefillPriority), 0u);
  EXPECT_EQ(default_chunk_tokens(BatchPolicy::kDecodePriority), 0u);
}

TEST(BatchPolicyCliTest, ParsePreemptPolicyRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_preempt_policy("none"), PreemptPolicy::kNone);
  EXPECT_EQ(parse_preempt_policy("recompute"),
            PreemptPolicy::kRecomputeYoungest);
  EXPECT_THROW(parse_preempt_policy("swap"), std::invalid_argument);
  EXPECT_THROW(parse_preempt_policy(""), std::invalid_argument);
}

/// Builds through the serving flag table, so every name
/// parse_scheduler_cli reads must be declared there (an undeclared read is
/// a std::logic_error, which no case below expects).
util::Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return util::Cli(static_cast<int>(args.size()), args.data(),
                   {"test", scheduler_flags({})});
}

TEST(SchedulerCliTest, DefaultsAreLegacyCompatible) {
  const SchedulerCliOptions opts = parse_scheduler_cli(make_cli({}));
  EXPECT_EQ(opts.policy, BatchPolicy::kPrefillPriority);
  EXPECT_EQ(opts.chunk_tokens, 0u);
  EXPECT_EQ(opts.preempt, PreemptPolicy::kNone);
  EXPECT_EQ(opts.kv_block_tokens, 1u);
  EXPECT_FALSE(opts.paged());
}

TEST(SchedulerCliTest, ChunkedPolicyDefaultsItsBudget) {
  const SchedulerCliOptions opts =
      parse_scheduler_cli(make_cli({"--policy=chunked"}));
  EXPECT_EQ(opts.policy, BatchPolicy::kChunkedMixed);
  EXPECT_EQ(opts.chunk_tokens, 64u);
  // An explicit zero budget (degenerate decode-priority) stays allowed.
  EXPECT_EQ(parse_scheduler_cli(
                make_cli({"--policy=chunked", "--chunk-tokens=0"}))
                .chunk_tokens,
            0u);
}

TEST(SchedulerCliTest, RejectsChunkBudgetUnderWholePromptPolicies) {
  // On a whole-prompt policy a budget could only cap batch members;
  // FleetConfig::validate, which the parser runs, rejects it.
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--policy=prefill", "--chunk-tokens=32"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(
                   make_cli({"--policy=decode", "--chunk-tokens=32"})),
               std::invalid_argument);
}

TEST(SchedulerCliTest, ParsesAndValidatesPagedKvFlags) {
  const SchedulerCliOptions opts = parse_scheduler_cli(make_cli(
      {"--policy=chunked", "--preempt=recompute", "--kv-block-tokens=16"}));
  EXPECT_EQ(opts.preempt, PreemptPolicy::kRecomputeYoungest);
  EXPECT_EQ(opts.kv_block_tokens, 16u);
  EXPECT_TRUE(opts.paged());
  EXPECT_TRUE(parse_scheduler_cli(make_cli({"--kv-block-tokens=8"})).paged());
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--kv-block-tokens=0"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--preempt=swap"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--chunk-tokens=-4"})),
               std::invalid_argument);
}

// ------------------------------------------------------------- Fleet runs

void expect_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.decode_tokens, b.decode_tokens);
  EXPECT_EQ(a.iterations, b.iterations);
  // Bit-identical, not approximately equal: the engine guarantees
  // reproducible event ordering and all arithmetic is deterministic.
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.ttft_ms.p50, b.ttft_ms.p50);
  EXPECT_EQ(a.ttft_ms.p99, b.ttft_ms.p99);
  EXPECT_EQ(a.token_ms.p50, b.token_ms.p50);
  EXPECT_EQ(a.e2e_ms.p99, b.e2e_ms.p99);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.kv_peak_occupancy, b.kv_peak_occupancy);
  EXPECT_EQ(a.kv_stall_events, b.kv_stall_events);
  // A healthy fleet never over-releases; the field exists to make the
  // accounting bug observable if one ever does.
  EXPECT_EQ(a.kv_over_release_events, 0u);
  EXPECT_EQ(b.kv_over_release_events, 0u);
  EXPECT_EQ(a.prefill_chunk_steps, b.prefill_chunk_steps);
  EXPECT_EQ(a.chunked_prompts, b.chunked_prompts);
  EXPECT_EQ(a.decode_stall_iterations, b.decode_stall_iterations);
  EXPECT_EQ(a.decode_stall_ms, b.decode_stall_ms);
  EXPECT_EQ(a.inter_token_gap_ms.p50, b.inter_token_gap_ms.p50);
  EXPECT_EQ(a.inter_token_gap_ms.p99, b.inter_token_gap_ms.p99);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.recompute_tokens, b.recompute_tokens);
  EXPECT_EQ(a.recompute_ms, b.recompute_ms);
  EXPECT_EQ(a.kv_peak_used_blocks, b.kv_peak_used_blocks);
  EXPECT_EQ(a.kv_peak_frag_tokens, b.kv_peak_frag_tokens);
}

TEST(SingleReplicaTest, SameSeedSameMetrics) {
  const ServingConfig cfg = base_config();
  const FleetSim sim(FleetConfig::homogeneous(cfg, 1));
  const FleetMetrics a = sim.run().fleet;
  const FleetMetrics b = sim.run().fleet;  // same instance
  const FleetMetrics c =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;  // fresh probe
  expect_identical(a, b);
  expect_identical(a, c);
  EXPECT_EQ(a.completed, cfg.traffic.num_requests);
  EXPECT_EQ(a.offered, a.completed + a.rejected);
}

TEST(SingleReplicaTest, DifferentSeedsDiverge) {
  ServingConfig cfg = base_config();
  const FleetMetrics a = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  cfg.traffic.seed = 43;
  const FleetMetrics b = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_NE(a.duration_s, b.duration_s);
}

TEST(SingleReplicaTest, KvExhaustionBackpressuresButCompletes) {
  ServingConfig cfg = base_config();
  // Room for ~2 test-mix requests at a time; 24 arrive nearly at once.
  cfg.traffic.arrival_rate_per_s = 50000.0;
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 64 * probe.bytes_per_token_per_node();
  const FleetMetrics m = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_EQ(m.completed, cfg.traffic.num_requests);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_GT(m.kv_stall_events, 0u);       // admission actually stalled
  EXPECT_GT(m.peak_queue_depth, 4u);      // the queue visibly backed up
  EXPECT_LE(m.kv_peak_occupancy, 1.0);    // never over-committed
  EXPECT_GT(m.queue_wait_ms.p99, m.queue_wait_ms.p50);
}

TEST(SingleReplicaTest, OversizedRequestIsRejectedNotWedged) {
  ServingConfig cfg = base_config();
  cfg.traffic.explicit_arrivals = {
      {0, workload::make_scenario(8, 8)},
      {0, workload::make_scenario(30, 30)},  // > 32-token KV budget
      {0, workload::make_scenario(8, 8)},
  };
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 32 * probe.bytes_per_token_per_node();
  const FleetMetrics m = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_EQ(m.offered, 3u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.rejected, 1u);
}

TEST(SingleReplicaTest, QueueCapacityShedsLoad) {
  ServingConfig cfg = base_config();
  cfg.traffic.arrival_rate_per_s = 5000.0;  // everyone arrives at once
  cfg.scheduler.queue_capacity = 4;
  cfg.scheduler.max_in_flight = 2;
  const FleetMetrics m = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_GT(m.rejected, 0u);
  EXPECT_EQ(m.offered, m.completed + m.rejected);
  EXPECT_LE(m.peak_queue_depth, 4u);
}

TEST(SingleReplicaTest, QueueBoundOfOneShedsASimultaneousBurst) {
  // Three cycle-0 arrivals at one replica with room for one waiting
  // request: the first is queued, the other two are shed at the door, and
  // their records say so, so a caller cannot read their zero latency as
  // a measurement.
  ServingConfig cfg = base_config();
  cfg.keep_request_records = true;
  cfg.scheduler.queue_capacity = 1;
  cfg.traffic.explicit_arrivals = {
      {0, workload::make_scenario(4, 6)},
      {0, workload::make_scenario(8, 4)},
      {0, workload::make_scenario(4, 6)},
  };
  const FleetMetrics m = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_EQ(m.offered, 3u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.rejected, 2u);
  ASSERT_EQ(m.requests.size(), 3u);
  EXPECT_FALSE(m.requests[0].rejected);
  EXPECT_EQ(m.requests[0].admitted, m.requests[0].arrival);  // no wait
  EXPECT_GT(m.requests[0].completed, m.requests[0].first_token);
  EXPECT_GE(m.requests[0].prefill_chunks, 1u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(m.requests[i].rejected) << i;
    EXPECT_EQ(m.requests[i].completed, 0u) << i;
  }
}

TEST(SingleReplicaTest, BatchingRespectsMaxBatchAndInterleaves) {
  for (const BatchPolicy policy :
       {BatchPolicy::kPrefillPriority, BatchPolicy::kDecodePriority}) {
    ServingConfig cfg = base_config();
    cfg.scheduler.policy = policy;
    cfg.keep_request_records = true;
    const FleetMetrics m =
        FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
    EXPECT_EQ(m.completed, cfg.traffic.num_requests);
    EXPECT_LE(m.mean_batch_size,
              static_cast<double>(cfg.scheduler.max_batch));
    EXPECT_GT(m.mean_batch_size, 1.0);  // batching actually happened
    EXPECT_GT(m.decode_tokens, 0u);
  }
}

TEST(SingleReplicaTest, PolicyTradesTtftForTokenLatency) {
  ServingConfig cfg = base_config();
  cfg.traffic.arrival_rate_per_s = 2000.0;  // saturating burst
  cfg.traffic.num_requests = 32;
  cfg.scheduler.policy = BatchPolicy::kPrefillPriority;
  const FleetMetrics prefill_first =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  cfg.scheduler.policy = BatchPolicy::kDecodePriority;
  const FleetMetrics decode_first =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  // Prefill priority admits new requests sooner => lower median TTFT.
  EXPECT_LT(prefill_first.ttft_ms.p50, decode_first.ttft_ms.p50);
}

TEST(SingleReplicaTest, ChunkedPolicyIsDeterministic) {
  ServingConfig cfg = base_config();
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 8;
  const FleetMetrics a = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  const FleetMetrics b = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  expect_identical(a, b);
  EXPECT_EQ(a.completed, cfg.traffic.num_requests);
  EXPECT_GT(a.chunked_prompts, 0u);  // the 16-token prompts actually split
}

TEST(SingleReplicaTest, ChunkedWithSlackBudgetMatchesDecodePriority) {
  // When the budget always covers whole prompts, kChunkedMixed degenerates
  // to decode-priority scheduling — the two runs must be bit-identical.
  ServingConfig cfg = base_config();
  cfg.scheduler.policy = BatchPolicy::kDecodePriority;
  const FleetMetrics decode =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 0;  // unbounded
  const FleetMetrics chunked =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  expect_identical(decode, chunked);
  EXPECT_EQ(chunked.chunked_prompts, 0u);
  EXPECT_EQ(chunked.prefill_chunk_steps, chunked.completed);
}

/// The head-of-line interleaving contract the tentpole exists for: a
/// [128:*] long-prompt arrival mid-stream must not add more than one
/// chunk's span to any running decode's inter-token gap.
TEST(SingleReplicaTest, LongPromptArrivalMidStreamBoundsDecodeGap) {
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = chunk_model();
  cfg.cost_probe_stride = 16;
  cfg.keep_request_records = true;
  cfg.scheduler.max_batch = 8;
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);
  // Request 0 decodes a long stream from cycle 0; the [128:8] prompt lands
  // once ~10 of its tokens are out.
  const sim::Cycles mid_stream =
      costs.prefill_cycles(8) +
      10 * (costs.step_cycles(40) + costs.host_sync_cycles());
  cfg.traffic.explicit_arrivals = {
      {0, workload::make_scenario(8, 64)},
      {mid_stream, workload::make_scenario(128, 8)},
  };

  cfg.scheduler.policy = BatchPolicy::kPrefillPriority;
  const FleetMetrics whole =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  const std::uint32_t budget = 16;
  cfg.scheduler.max_tokens_per_iter = budget;
  const FleetMetrics chunked =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;
  ASSERT_EQ(whole.requests.size(), 2u);
  ASSERT_EQ(chunked.requests.size(), 2u);

  // Unchunked, the decode's worst gap swallows the whole 128-token prompt.
  EXPECT_GE(whole.requests[0].max_token_gap, costs.prefill_cycles(128));
  EXPECT_EQ(whole.requests[1].prefill_chunks, 1u);

  // Chunked, every iteration carries at most one <= budget-token chunk, so
  // the decode's gap is bounded by one iteration: the worst decode group
  // (both streams at max KV depth), one chunk at the deepest prompt
  // offsets, and the per-iteration host sync.
  const std::uint32_t deepest = 128 - (budget - 1);
  const sim::Cycles gap_bound =
      costs.decode_batch_cycles({cfg.model.max_seq_len - 1,
                                 cfg.model.max_seq_len - 1}) +
      costs.prefill_chunk_cycles(deepest, budget - 1) +
      costs.host_sync_cycles();
  EXPECT_LE(chunked.requests[0].max_token_gap, gap_bound);
  EXPECT_LT(chunked.requests[0].max_token_gap,
            whole.requests[0].max_token_gap);
  EXPECT_GT(chunked.requests[1].prefill_chunks, 1u);
  EXPECT_GT(chunked.chunked_prompts, 0u);
  // All 8 prompt tokens of the runner plus the long prompt complete.
  EXPECT_EQ(chunked.completed, 2u);
}

/// The PR's acceptance criterion: on a long-prompt-heavy mix at a fixed
/// seed, chunking strictly cuts p99 per-token latency versus unchunked
/// prefill-priority while holding throughput within 5%.
TEST(SingleReplicaTest, ChunkedPrefillCutsTokenTailOnLongPromptMix) {
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = chunk_model();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix =
      workload::Mix{"long-prompt-heavy",
                    {{workload::make_scenario(128, 8), 0.4},
                     {workload::make_scenario(8, 48), 0.6}}};
  cfg.traffic.num_requests = 48;
  cfg.traffic.arrival_rate_per_s = 400.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 8;
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);

  cfg.scheduler.policy = BatchPolicy::kPrefillPriority;
  cfg.scheduler.max_tokens_per_iter = 0;
  const FleetMetrics whole =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  const FleetMetrics chunked =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;

  ASSERT_EQ(whole.completed, cfg.traffic.num_requests);
  ASSERT_EQ(chunked.completed, cfg.traffic.num_requests);
  EXPECT_LT(chunked.token_ms.p99, whole.token_ms.p99);
  EXPECT_LT(chunked.inter_token_gap_ms.p99, whole.inter_token_gap_ms.p99);
  EXPECT_GT(chunked.decode_tok_s, 0.95 * whole.decode_tok_s);
  EXPECT_LT(chunked.decode_tok_s, 1.05 * whole.decode_tok_s);
  // The win comes from *bounding* each stall, not eliminating stalls:
  // chunking deliberately co-schedules prompt work with decodes (often in
  // more iterations overall), but every individual stall shrinks to at
  // most one chunk, so the mean stall per stalled iteration drops.
  ASSERT_GT(whole.decode_stall_iterations, 0u);
  ASSERT_GT(chunked.decode_stall_iterations, 0u);
  EXPECT_LT(chunked.decode_stall_ms /
                static_cast<double>(chunked.decode_stall_iterations),
            whole.decode_stall_ms /
                static_cast<double>(whole.decode_stall_iterations));
  EXPECT_GT(chunked.chunked_prompts, 0u);
}

// ------------------------------------------------- Paged KV + preemption

/// Decode-heavy shapes: whole-footprint reservation books the long decode
/// tail at admission, so most of the booked HBM sits empty for most of
/// each request's life — the slack paged admission reclaims.
ServingConfig paged_config() {
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"decode-heavy",
                                  {{workload::make_scenario(8, 40), 0.7},
                                   {workload::make_scenario(4, 24), 0.3}}};
  cfg.traffic.num_requests = 96;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  // Room for three whole [8:40] footprints: moderate overcommit, the
  // regime preempt-and-recompute is built for.
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 144 * probe.bytes_per_token_per_node();
  cfg.kv_block_tokens = 4;
  cfg.scheduler.max_in_flight = 8;
  cfg.keep_request_records = true;
  // SLOs sized to the cosim deployment (~0.2 ms/token, a few ms of
  // prefill): goodput then prices what paged admission actually buys —
  // burst tails that clear admission immediately instead of queueing
  // behind whole-footprint reservations.
  cfg.slo.ttft_ms = 5.0;
  cfg.slo.token_ms = 2.0;
  return cfg;
}

/// Several short burst/drain cycles at ~50% mean utilization — KV is the
/// binding resource during each burst, the pipeline is not. The off-phases
/// matter: they drain the block pool between bursts, which is what keeps
/// recompute preemption out of the thrash regime (at saturating rates
/// whole-footprint wins instead: admission queueing is free when the
/// pipeline is the bottleneck, and every recomputed token is pure loss —
/// serve_load --preempt=recompute --kv-budget-mb exposes that crossover).
void bursty_traffic(ServingConfig& cfg) {
  cfg.traffic.process = ArrivalProcess::kBursty;
  cfg.traffic.arrival_rate_per_s = 200.0;
  cfg.traffic.burst_factor = 4.0;
  cfg.traffic.burst_fraction = 0.25;
  cfg.traffic.burst_period_s = 0.05;
}

/// The PR's acceptance criterion: at a fixed seed and equal per-node HBM
/// budget, paged admission with recompute preemption admits strictly more
/// concurrent requests and achieves higher goodput than whole-footprint
/// reservation on the bursty mix — and preemption is livelock-free (every
/// request finishes, with a bounded recompute count).
TEST(SingleReplicaTest, PagedRecomputeBeatsWholeFootprintOnBurstyMix) {
  ServingConfig cfg = paged_config();
  bursty_traffic(cfg);
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);

  cfg.scheduler.preempt = PreemptPolicy::kNone;
  const FleetMetrics whole =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  const FleetMetrics paged =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;

  ASSERT_EQ(whole.completed, cfg.traffic.num_requests);
  ASSERT_EQ(paged.completed, cfg.traffic.num_requests);  // nobody starves
  EXPECT_EQ(whole.preemptions, 0u);  // kNone can never need to evict
  EXPECT_GT(paged.preemptions, 0u);  // the pool actually ran dry

  // Strictly more admitted concurrency and strictly higher goodput at the
  // same HBM budget.
  EXPECT_GT(paged.peak_in_flight, whole.peak_in_flight);
  EXPECT_GT(paged.goodput_req_s, whole.goodput_req_s);
  EXPECT_GT(paged.mean_batch_size, whole.mean_batch_size);

  // Livelock-free: bounded recompute per request (age-ordered eviction
  // means the oldest request is never preempted at all).
  std::uint32_t max_preempt = 0;
  for (const RequestRecord& r : paged.requests) {
    EXPECT_FALSE(r.rejected);
    max_preempt = std::max(max_preempt, r.preemptions);
  }
  EXPECT_GT(max_preempt, 0u);
  EXPECT_LE(max_preempt, 12u);
  EXPECT_EQ(paged.requests[0].preemptions, 0u);  // oldest never evicted
  // The recompute bill is visible and priced.
  EXPECT_GT(paged.recompute_tokens, 0u);
  EXPECT_GT(paged.recompute_ms, 0.0);
}

TEST(SingleReplicaTest, RecomputePreemptionIsDeterministic) {
  ServingConfig cfg = paged_config();
  bursty_traffic(cfg);
  cfg.traffic.num_requests = 48;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  const FleetMetrics a = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  const FleetMetrics b = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  expect_identical(a, b);
  EXPECT_GT(a.preemptions, 0u);
}

TEST(SingleReplicaTest, PreemptedRequestEventuallyFinishes) {
  // Two decode-heavy requests land at cycle 0 on a pool that fits ~1.3 of
  // their final footprints. Paged admission takes both (prompt blocks
  // only); decode growth then drains the pool and the younger request is
  // evicted-and-recomputed — possibly several times — but must finish.
  ServingConfig cfg = paged_config();
  cfg.traffic.explicit_arrivals = {
      {0, workload::make_scenario(8, 40)},
      {0, workload::make_scenario(8, 40)},
  };
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 64 * probe.bytes_per_token_per_node();
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  const FleetMetrics m = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  ASSERT_EQ(m.completed, 2u);
  ASSERT_EQ(m.requests.size(), 2u);
  EXPECT_EQ(m.requests[0].preemptions, 0u);  // elder: never evicted
  EXPECT_GE(m.requests[1].preemptions, 1u);  // younger: evicted, recovered
  EXPECT_LE(m.requests[1].preemptions, 16u);  // ...a bounded number of times
  EXPECT_EQ(m.preemptions, m.requests[1].preemptions);
  // Every evicted token re-runs as prefill, so the victim's prompt took
  // more chunk steps than an unpreempted prompt would.
  EXPECT_GT(m.recompute_tokens, 0u);
  // Whole-footprint reservation on the same pool serializes the two
  // requests instead (48 + 48 > 64): same completions, zero preemptions.
  cfg.scheduler.preempt = PreemptPolicy::kNone;
  const FleetMetrics serial =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_EQ(serial.completed, 2u);
  EXPECT_EQ(serial.preemptions, 0u);
  EXPECT_EQ(serial.peak_in_flight, 1u);
}

TEST(SingleReplicaTest, CoarseBlocksWithoutPreemptionStayConservative) {
  // preempt=none at block size > 1: the whole footprint is still reserved
  // up front (block-rounded), so nothing is ever evicted and the fleet
  // behaves like the legacy manager with slightly coarser capacity.
  ServingConfig cfg = base_config();
  cfg.kv_block_tokens = 8;
  const FleetMetrics m = FleetSim(FleetConfig::homogeneous(cfg, 1)).run().fleet;
  EXPECT_EQ(m.completed, cfg.traffic.num_requests);
  EXPECT_EQ(m.preemptions, 0u);
  EXPECT_EQ(m.kv_block_tokens, 8u);
  EXPECT_LE(m.kv_peak_occupancy, 1.0);
  // Block rounding shows up as measurable internal fragmentation.
  EXPECT_GT(m.kv_peak_frag_tokens, 0u);
}

TEST(SingleReplicaTest, RejectsZeroKvBlockTokens) {
  ServingConfig cfg = base_config();
  cfg.kv_block_tokens = 0;
  EXPECT_THROW(FleetSim{FleetConfig::homogeneous(cfg, 1)},
               std::invalid_argument);
}

// ------------------------------------------ Decode runs booked in one wake

/// Arrivals the balancer routed to each replica, in replica order.
std::vector<std::uint64_t> routed_counts(const FleetResult& r) {
  std::vector<std::uint64_t> counts;
  for (const FleetMetrics& m : r.replicas) counts.push_back(m.offered);
  return counts;
}

/// Runs `cfg` unobserved, where a replica books a decode-only stretch
/// between arrivals in one engine wake, and with an Observer attached,
/// which gives every iteration its own wake: the stepped oracle. Every
/// FleetMetrics field and record must agree, iterations included. Returns
/// the unobserved run.
FleetResult expect_matches_stepped(const FleetConfig& cfg) {
  const FleetResult run = FleetSim(cfg).run();
  Observer obs(static_cast<std::uint32_t>(cfg.replicas.size()),
               cfg.replicas.front().arch.frequency_hz);
  const FleetResult stepped = FleetSim(cfg).run(&obs);
  EXPECT_EQ(run.fleet.iterations, stepped.fleet.iterations);
  EXPECT_EQ(run.fleet.peak_in_flight, stepped.fleet.peak_in_flight);
  EXPECT_EQ(run.fleet.duration_s, stepped.fleet.duration_s);
  EXPECT_TRUE(run.fleet == stepped.fleet)
      << "a fleet metric or request record differs";
  EXPECT_EQ(run.replicas.size(), stepped.replicas.size());
  for (std::size_t i = 0;
       i < run.replicas.size() && i < stepped.replicas.size(); ++i) {
    EXPECT_TRUE(run.replicas[i] == stepped.replicas[i]) << "replica " << i;
  }
  return run;
}

/// Cycles of request `id`'s lifecycle events of `kind` in an observed run
/// of `cfg`.
std::vector<sim::Cycles> event_cycles(const FleetConfig& cfg, std::uint32_t id,
                                      LifecycleEvent kind) {
  Observer obs(static_cast<std::uint32_t>(cfg.replicas.size()),
               cfg.replicas.front().arch.frequency_hz);
  FleetSim(cfg).run(&obs);
  std::vector<sim::Cycles> at;
  for (const ObservedEvent& e : obs.events()) {
    if (e.request == id && e.kind == kind) at.push_back(e.at);
  }
  return at;
}

/// Egress cycles of request `id`'s decode iterations (the prefill's
/// token #1 excluded), read off an observed run of `cfg`.
std::vector<sim::Cycles> decode_emissions(const FleetConfig& cfg,
                                          std::uint32_t id) {
  return event_cycles(cfg, id, LifecycleEvent::kDecode);
}

/// One [8:40] stream alone at cycle 0 on a paged, chunked replica: after
/// its prompt it decodes 40 iterations with nothing else to do.
ServingConfig lone_stream_config() {
  ServingConfig cfg = paged_config();
  cfg.traffic.explicit_arrivals = {{0, workload::make_scenario(8, 40)}};
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  return cfg;
}

TEST(DecodeRunTest, KvPoolRunningDryEndsTheRunBeforeTheFailingGrow) {
  // Two decode-heavy streams share a pool that fits ~1.3 of their final
  // footprints: decode growth drains it mid-run, so the run must close
  // before the grow that would fail and leave that grow — its stall, the
  // preemption and the recompute — to the ordinary path.
  for (const std::uint32_t block_tokens : {1u, 4u}) {
    SCOPED_TRACE(block_tokens);
    ServingConfig cfg = paged_config();
    cfg.traffic.explicit_arrivals = {
        {0, workload::make_scenario(8, 40)},
        {0, workload::make_scenario(8, 40)},
    };
    KvBlockManager probe(cfg.arch, cfg.model, 1);
    cfg.kv_budget_bytes_per_node = 64 * probe.bytes_per_token_per_node();
    cfg.kv_block_tokens = block_tokens;
    cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
    const FleetResult r =
        expect_matches_stepped(FleetConfig::homogeneous(cfg, 1));
    EXPECT_EQ(r.fleet.completed, 2u);
    EXPECT_GT(r.fleet.preemptions, 0u);
    EXPECT_GT(r.fleet.kv_stall_events, 0u);
  }
}

TEST(DecodeRunTest, ArrivalOnARunEgressCycleClosesTheRun) {
  // A second request lands exactly on the cycle one of the stream's
  // decode iterations leaves the pipeline — the first, one mid-run, the
  // second-to-last and the completing one. On two replicas under JSQ the
  // routing decision reads the stream's replica at that very cycle.
  const ServingConfig lone = lone_stream_config();
  const std::vector<sim::Cycles> egress =
      decode_emissions(FleetConfig::homogeneous(lone, 1), 0);
  ASSERT_EQ(egress.size(), 40u);
  for (const std::size_t k : {std::size_t{0}, std::size_t{12},
                              egress.size() - 2, egress.size() - 1}) {
    for (const std::uint32_t replicas : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << "egress " << k << ", "
                                        << replicas << " replica(s)");
      ServingConfig cfg = lone;
      cfg.traffic.explicit_arrivals.push_back(
          {egress[k], workload::make_scenario(4, 24)});
      const FleetResult r = expect_matches_stepped(FleetConfig::homogeneous(
          cfg, replicas, BalancerPolicy::kJoinShortestQueue));
      ASSERT_EQ(r.fleet.requests.size(), 2u);
      EXPECT_EQ(r.fleet.completed, 2u);
    }
  }
}

TEST(DecodeRunTest, BurstArrivalsSharingOneCycle) {
  // Three requests land on one cycle in the middle of a decode run, on
  // paged replicas: the kv-aware balancer reads free KV that the run's
  // booked grows have changed, JSQ reads outstanding work.
  const ServingConfig lone = lone_stream_config();
  const std::vector<sim::Cycles> egress =
      decode_emissions(FleetConfig::homogeneous(lone, 1), 0);
  ASSERT_GT(egress.size(), 20u);
  for (const sim::Cycles at : {egress[20], egress[20] + 1}) {
    for (const BalancerPolicy policy :
         {BalancerPolicy::kJoinShortestQueue, BalancerPolicy::kKvAware}) {
      SCOPED_TRACE(::testing::Message() << "burst at " << at << ", "
                                        << balancer_policy_name(policy));
      ServingConfig cfg = lone;
      for (int i = 0; i < 3; ++i) {
        cfg.traffic.explicit_arrivals.push_back(
            {at, workload::make_scenario(4, 24)});
      }
      const FleetResult r =
          expect_matches_stepped(FleetConfig::homogeneous(cfg, 2, policy));
      EXPECT_EQ(r.fleet.completed, 4u);
      EXPECT_GT(r.replicas[1].offered, 0u);
    }
  }
}

TEST(DecodeRunTest, MultiMemberDecodeBatchesUnderAChunkedBudget) {
  // Four streams of different lengths decode together under a token
  // budget below the stream count: while the budget leaves a stream out
  // of the batch every iteration takes its own wake, and once enough
  // streams finish, the survivors' whole ready pool runs as one batch.
  for (const std::uint32_t budget : {2u, 3u, 16u}) {
    SCOPED_TRACE(budget);
    ServingConfig cfg = paged_config();
    cfg.scheduler.max_tokens_per_iter = budget;
    cfg.traffic.explicit_arrivals = {
        {0, workload::make_scenario(4, 24)},
        {0, workload::make_scenario(4, 16)},
        {0, workload::make_scenario(4, 12)},
        {0, workload::make_scenario(4, 20)},
    };
    const FleetResult r =
        expect_matches_stepped(FleetConfig::homogeneous(cfg, 1));
    EXPECT_EQ(r.fleet.completed, 4u);
    EXPECT_GT(r.fleet.mean_batch_size, 1.0);
  }
}

TEST(DecodeRunTest, DrainAfterTheLastArrival) {
  // Every request has arrived within the first few thousand cycles; the
  // long decode tails then drain with no arrival left to bound a run, on
  // whole-footprint and paged replicas alike.
  for (const PreemptPolicy preempt :
       {PreemptPolicy::kNone, PreemptPolicy::kRecomputeYoungest}) {
    SCOPED_TRACE(preempt_policy_name(preempt));
    ServingConfig cfg = paged_config();
    cfg.scheduler.preempt = preempt;
    cfg.traffic.explicit_arrivals.clear();
    for (sim::Cycles i = 0; i < 6; ++i) {
      cfg.traffic.explicit_arrivals.push_back(
          {i * 1000, workload::make_scenario(8, 40 - 4 * i)});
    }
    const FleetResult r = expect_matches_stepped(
        FleetConfig::homogeneous(cfg, 2, BalancerPolicy::kRoundRobin));
    EXPECT_EQ(r.fleet.completed, 6u);
  }
}

TEST(DecodeRunTest, ArrivalAtAPeerLeavesARunIntact) {
  // The stream decodes on replica 0 while a short request lands on
  // replica 1 on one of the stream's egress cycles, one cycle later, and
  // between two egresses: the router reads replica 0 (JSQ its outstanding
  // work, kv-aware its free KV as of that cycle) and its run goes on.
  const ServingConfig lone = lone_stream_config();
  const std::vector<sim::Cycles> egress =
      decode_emissions(FleetConfig::homogeneous(lone, 1), 0);
  ASSERT_EQ(egress.size(), 40u);
  for (const sim::Cycles at :
       {egress[9], egress[9] + 1, (egress[20] + egress[21]) / 2}) {
    for (const BalancerPolicy policy :
         {BalancerPolicy::kRoundRobin, BalancerPolicy::kJoinShortestQueue,
          BalancerPolicy::kKvAware}) {
      SCOPED_TRACE(::testing::Message() << "arrival at " << at << ", "
                                        << balancer_policy_name(policy));
      ServingConfig cfg = lone;
      cfg.traffic.explicit_arrivals.push_back(
          {at, workload::make_scenario(4, 24)});
      const FleetResult r =
          expect_matches_stepped(FleetConfig::homogeneous(cfg, 2, policy));
      EXPECT_EQ(routed_counts(r), (std::vector<std::uint64_t>{1, 1}));
      EXPECT_EQ(r.fleet.completed, 2u);
    }
  }
}

TEST(DecodeRunTest, CutWakeKeepsItsPlaceAmongSameCycleEvents) {
  // Replica 0 decodes the stream as a run; an arrival cuts it mid-way
  // through the iteration ending at cycle E, so the request is admitted at
  // E. Replica 1 finishes a short request at E too, from an iteration that
  // began after the stream's iteration did but before the cut. Stepped,
  // the stream's wake at E was scheduled first, so the admission precedes
  // the finish and the fleet peaks at 3 in flight; the cut wake keeps that
  // place only because it is stamped with its iteration's start.
  const ServingConfig lone = lone_stream_config();
  const std::vector<sim::Cycles> egress =
      decode_emissions(FleetConfig::homogeneous(lone, 1), 0);
  ASSERT_EQ(egress.size(), 40u);
  const sim::Cycles e = egress[25];
  ServingConfig shorty = lone;
  shorty.traffic.explicit_arrivals = {{0, workload::make_scenario(4, 6)}};
  const FleetConfig alone = FleetConfig::homogeneous(shorty, 1);
  const std::vector<sim::Cycles> tokens = decode_emissions(alone, 0);
  ASSERT_GE(tokens.size(), 2u);
  const sim::Cycles finish_delay = tokens.back();
  const sim::Cycles last_span = tokens.back() - tokens[tokens.size() - 2];
  const sim::Cycles last_start = e - last_span;
  ASSERT_GT(last_start, egress[24]);
  ServingConfig cfg = lone;
  cfg.traffic.explicit_arrivals.push_back(
      {e - finish_delay, workload::make_scenario(4, 6)});
  cfg.traffic.explicit_arrivals.push_back(
      {(last_start + e) / 2, workload::make_scenario(4, 6)});
  const FleetConfig fleet =
      FleetConfig::homogeneous(cfg, 2, BalancerPolicy::kRoundRobin);
  ASSERT_EQ(event_cycles(fleet, 1, LifecycleEvent::kFinish),
            std::vector<sim::Cycles>{e});
  const FleetResult r = expect_matches_stepped(fleet);
  EXPECT_EQ(routed_counts(r), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(r.fleet.peak_in_flight, 3u);
}

TEST(DecodeRunTest, CloseWakeKeepsItsPlaceAmongSameCycleEvents) {
  // Replica 0 decodes [8:41] as one run; its closing iteration, the last,
  // starts at cycle S and grows the KV by a block there. Replica 1 holds
  // exactly the blocks replica 0 held before that grow. A kv-aware routing
  // decision at S, from an arrival whose previous one came mid-run, sees
  // equal free KV and keeps replica 0 — stepped, the arrival's wake was
  // scheduled before the wake at S, so the grow has not happened yet. The
  // close wake keeps that order only because it is stamped with the start
  // of the iteration before it.
  ServingConfig cfg = lone_stream_config();
  cfg.traffic.explicit_arrivals = {{0, workload::make_scenario(8, 41)}};
  const std::vector<sim::Cycles> egress =
      decode_emissions(FleetConfig::homogeneous(cfg, 1), 0);
  ASSERT_EQ(egress.size(), 41u);
  const sim::Cycles close_start = egress[39];
  cfg.traffic.explicit_arrivals.push_back(
      {egress[10] + 1, workload::make_scenario(40, 8)});
  cfg.traffic.explicit_arrivals.push_back(
      {close_start, workload::make_scenario(4, 6)});
  FleetConfig fleet =
      FleetConfig::homogeneous(cfg, 2, BalancerPolicy::kKvAware);
  // Replica 1 reserves [40:8]'s whole footprint, 12 blocks, at admission.
  fleet.replicas[1].scheduler.preempt = PreemptPolicy::kNone;
  const FleetResult r = expect_matches_stepped(fleet);
  EXPECT_EQ(routed_counts(r), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(r.fleet.completed, 3u);
}

/// A prefill replica and a decode replica joined by a ring whose links
/// move `bytes_per_cycle`; `cfg`'s arrivals all route to the prefill one.
FleetConfig prefill_decode_pair(const ServingConfig& cfg,
                                double bytes_per_cycle) {
  FleetConfig fleet = FleetConfig::homogeneous(cfg, 2);
  fleet.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  fleet.kv_link.bytes_per_cycle = bytes_per_cycle;
  return fleet;
}

/// Cycle the KV of request `id` landed on its decode replica in an
/// observed run of `cfg` (0 when it never migrated).
sim::Cycles migration_landing(const FleetConfig& cfg, std::uint32_t id) {
  const std::vector<sim::Cycles> at =
      event_cycles(cfg, id, LifecycleEvent::kKvMigrate);
  return at.empty() ? 0 : at.front();
}

TEST(DecodeRunTest, MigrationLandingCutsADecodeReplicasRun) {
  // The stream's KV migrates to the decode replica, which decodes it as a
  // run. A second prompt's KV then lands there mid-run, or exactly on one
  // of the stream's egress cycles. On the fast link the landing's last
  // hop was scheduled after the iteration ending there began, so the
  // iteration starting there is booked; on the slow one (a block hop
  // outlasts several iterations), before it, so that iteration instead
  // closes the run and admits the landed request.
  for (const double link : {4.0, 0.02}) {
    const FleetConfig lone = prefill_decode_pair(lone_stream_config(), link);
    const std::vector<sim::Cycles> egress = decode_emissions(lone, 0);
    ASSERT_GT(egress.size(), 30u);
    // The prefill replica is idle by then, so the landing trails the
    // arrival by a fixed delay.
    ServingConfig probe = lone_stream_config();
    probe.traffic.explicit_arrivals = {{0, workload::make_scenario(4, 24)}};
    const sim::Cycles delay =
        migration_landing(prefill_decode_pair(probe, link), 0);
    ASSERT_GT(delay, 0u);
    for (const sim::Cycles lands :
         {egress[20], egress[20] + 1, (egress[24] + egress[25]) / 2}) {
      SCOPED_TRACE(::testing::Message() << "link " << link << " B/cycle, "
                                        << "landing at " << lands);
      ASSERT_GT(lands, delay + egress.front());
      ServingConfig cfg = lone_stream_config();
      cfg.traffic.explicit_arrivals.push_back(
          {lands - delay, workload::make_scenario(4, 24)});
      const FleetConfig fleet = prefill_decode_pair(cfg, link);
      ASSERT_EQ(migration_landing(fleet, 1), lands);
      const FleetResult r = expect_matches_stepped(fleet);
      EXPECT_EQ(r.fleet.completed, 2u);
      EXPECT_EQ(r.fleet.kv_migrations, 2u);
    }
  }
}

TEST(DecodeRunTest, StealLandingCutsTheThiefsRun) {
  // The prefill replica takes one prompt at a time, so a queue builds
  // behind it. The decode replica goes idle and steals the youngest
  // queued prompt over a slow link; a migration lands on it before the
  // steal does, and it decodes that request as a run, which the steal's
  // landing cuts: the stolen prompt joins the batch at the next
  // iteration. Scripted scenarios (found by a seeded search) at two block
  // sizes and link speeds; each is checked to land the steal mid-run.
  struct Scenario {
    std::uint32_t block_tokens;
    double link;           // bytes per cycle
    std::uint32_t stolen;  // request the decode replica steals
    std::uint32_t cut;     // request it is decoding when the steal lands
    std::vector<Arrival> arrivals;
  };
  const auto at = [](sim::Cycles cycle, std::uint32_t prefill,
                     std::uint32_t decode) {
    return Arrival{cycle, workload::make_scenario(prefill, decode)};
  };
  const std::vector<Scenario> scenarios = {
      {1, 0.005, 5, 1,
       {at(155385, 4, 6), at(155385, 4, 12), at(489452, 12, 37),
        at(489452, 32, 31), at(604264, 7, 28), at(604264, 30, 39)}},
      {4, 0.02, 5, 0,
       {at(0, 27, 33), at(77622, 12, 16), at(378151, 18, 30),
        at(378151, 31, 4), at(410136, 40, 1), at(533974, 21, 7)}},
  };
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(::testing::Message() << "blocks of " << sc.block_tokens);
    ServingConfig cfg = lone_stream_config();
    cfg.scheduler.policy = BatchPolicy::kPrefillPriority;
    cfg.scheduler.max_tokens_per_iter = 0;
    cfg.scheduler.max_batch = 1;
    cfg.scheduler.max_in_flight = 1;
    cfg.scheduler.preempt = PreemptPolicy::kNone;
    cfg.kv_block_tokens = sc.block_tokens;
    cfg.traffic.explicit_arrivals = sc.arrivals;
    FleetConfig fleet = prefill_decode_pair(cfg, sc.link);
    fleet.replicas[1].scheduler.max_batch = 8;
    fleet.replicas[1].scheduler.max_in_flight = 8;
    const FleetResult r = expect_matches_stepped(fleet);
    EXPECT_EQ(r.fleet.completed, sc.arrivals.size());
    EXPECT_EQ(r.fleet.work_steals, 1u);
    // The scenario still holds: the steal lands on the decode replica
    // after the cut request's KV did, and the cut request decodes at
    // least twice before the landing and twice after it.
    Observer obs(2, cfg.arch.frequency_hz);
    FleetSim(fleet).run(&obs);
    sim::Cycles stolen_at = 0, landed_at = 0;
    int before = 0, after = 0;
    for (const ObservedEvent& e : obs.events()) {
      if (e.replica != 1) continue;
      if (e.kind == LifecycleEvent::kSteal && e.request == sc.stolen) {
        stolen_at = e.at;
      }
      if (e.request != sc.cut) continue;
      if (e.kind == LifecycleEvent::kKvMigrate) landed_at = e.at;
      if (e.kind == LifecycleEvent::kDecode) {
        (stolen_at == 0 ? before : after) += 1;
      }
    }
    EXPECT_GT(landed_at, 0u);
    EXPECT_GT(stolen_at, landed_at);
    EXPECT_GE(before, 2);
    EXPECT_GE(after, 2);
  }
}

/// One random fleet for the stepped oracle, drawn from `seed`: every axis
/// the run, close and cut rules read. `label` describes the draw.
FleetConfig random_fleet(std::uint64_t seed, std::string& label) {
  util::Rng rng(seed);
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng.next_below(n));
  };
  ServingConfig cfg;
  cfg.arch = test_arch();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.keep_request_records = true;
  const BatchPolicy policies[] = {BatchPolicy::kPrefillPriority,
                                  BatchPolicy::kDecodePriority,
                                  BatchPolicy::kChunkedMixed};
  cfg.scheduler.policy = policies[below(3)];
  if (cfg.scheduler.policy == BatchPolicy::kChunkedMixed) {
    const std::uint32_t budgets[] = {0, 2, 8, 32};
    cfg.scheduler.max_tokens_per_iter = budgets[below(4)];
  }
  cfg.scheduler.max_batch = 1 + below(8);
  cfg.scheduler.max_in_flight = below(2) == 0 ? 64 : 1 + below(8);
  cfg.scheduler.queue_capacity = below(4) == 0 ? 2 : 256;
  const PreemptPolicy preempts[] = {PreemptPolicy::kNone,
                                    PreemptPolicy::kRecomputeYoungest,
                                    PreemptPolicy::kRecomputeCostAware};
  cfg.scheduler.preempt = preempts[below(3)];
  cfg.kv_block_tokens = below(2) == 0 ? 1 : 16;
  const bool tight = below(2) == 0;
  if (tight) {
    KvBlockManager probe(cfg.arch, cfg.model, 1);
    cfg.kv_budget_bytes_per_node =
        (96 + below(128)) * probe.bytes_per_token_per_node();
  }
  // Arrivals: a quarter share the previous one's cycle (bursts), the rest
  // follow after up to ~30 lone decode steps.
  static const core::StepCostModel costs(cfg.arch, cfg.model, 16);
  const sim::Cycles step = costs.step_cycles(0);
  const std::uint32_t n = 8 + below(33);
  sim::Cycles at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i > 0 && below(4) != 0) at += rng.next_below(30 * step);
    const std::uint32_t prefill = 1 + below(40);
    const std::uint32_t decode = 1 + below(std::min(50u, 96 - prefill));
    cfg.traffic.explicit_arrivals.push_back(
        {at, workload::make_scenario(prefill, decode)});
  }
  const std::uint32_t replicas = 1 + below(8);
  const BalancerPolicy balancers[] = {BalancerPolicy::kRoundRobin,
                                      BalancerPolicy::kJoinShortestQueue,
                                      BalancerPolicy::kKvAware};
  FleetConfig fleet =
      FleetConfig::homogeneous(cfg, replicas, balancers[below(3)]);
  // Role splits: prefill then decode, or prefill, general then decode.
  const std::uint32_t split = replicas >= 2 ? below(3) : 0;
  if (split != 0 && (split == 1 || replicas >= 3)) {
    const std::uint32_t decode = 1 + below(replicas - (split == 1 ? 1 : 2));
    const std::uint32_t general = split == 1 ? 0 : 1;
    fleet.roles.assign(replicas - decode - general, ReplicaRole::kPrefill);
    fleet.roles.resize(replicas - decode, ReplicaRole::kGeneral);
    fleet.roles.resize(replicas, ReplicaRole::kDecode);
    const double links[] = {0.05, 1.0, 16.0};
    fleet.kv_link.bytes_per_cycle = links[below(3)];
  }
  label = std::to_string(replicas) + " replicas, " +
          balancer_policy_name(fleet.balancer) + ", " +
          batch_policy_name(cfg.scheduler.policy) + " budget " +
          std::to_string(cfg.scheduler.max_tokens_per_iter) + ", " +
          preempt_policy_name(cfg.scheduler.preempt) + ", blocks of " +
          std::to_string(cfg.kv_block_tokens) + (tight ? ", tight" : "") +
          " KV, " + std::to_string(n) + " arrivals, " +
          std::to_string(fleet.roles.size()) + " roles";
  return fleet;
}

TEST(DecodeRunTest, RandomFleetsMatchStepped) {
  // Seeded random fleets: each must match the stepped oracle on every
  // metric and record. The failing seed is in the trace; rerun it alone
  // by narrowing the loop.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    std::string label;
    const FleetConfig fleet = random_fleet(seed, label);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ": " << label);
    expect_matches_stepped(fleet);
    if (::testing::Test::HasFailure()) break;
  }
}

// ---------------------------------------------------------- RequestQueue

TEST(RequestQueueTest, BoundedFifoWithPeakTracking) {
  Request a(0, workload::make_scenario(1, 1));
  Request b(1, workload::make_scenario(1, 1));
  Request c(2, workload::make_scenario(1, 1));
  RequestQueue q(2);
  EXPECT_TRUE(q.push(&a));
  EXPECT_TRUE(q.push(&b));
  EXPECT_FALSE(q.push(&c));  // full
  EXPECT_EQ(q.peak_depth(), 2u);
  EXPECT_EQ(q.front(), &a);
  q.pop();
  EXPECT_EQ(q.front(), &b);
  EXPECT_TRUE(q.push(&c));
}

}  // namespace
}  // namespace looplynx::serve
