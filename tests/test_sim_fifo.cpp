// Unit + property tests for the bounded FIFO channel.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace looplynx::sim {
namespace {

Task producer(Engine& eng, Fifo<int>& fifo, int count, Cycles gap) {
  for (int i = 0; i < count; ++i) {
    co_await fifo.put(i);
    if (gap) co_await eng.delay(gap);
  }
}

Task consumer(Engine& eng, Fifo<int>& fifo, int count, Cycles gap,
              std::vector<int>& out) {
  for (int i = 0; i < count; ++i) {
    out.push_back(co_await fifo.get());
    if (gap) co_await eng.delay(gap);
  }
}

std::vector<int> iota_vec(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(FifoTest, TransfersPreserveOrder) {
  Engine eng;
  Fifo<int> fifo(eng, 4);
  std::vector<int> out;
  eng.spawn(producer(eng, fifo, 100, 0));
  eng.spawn(consumer(eng, fifo, 100, 0, out));
  eng.run();
  EXPECT_EQ(out, iota_vec(100));
  EXPECT_EQ(fifo.total_transfers(), 100u);
}

TEST(FifoTest, FastProducerSlowConsumerBackpressure) {
  Engine eng;
  Fifo<int> fifo(eng, 2);
  std::vector<int> out;
  eng.spawn(producer(eng, fifo, 50, 0));
  eng.spawn(consumer(eng, fifo, 50, 10, out));
  eng.run();
  EXPECT_EQ(out, iota_vec(50));
  EXPECT_LE(fifo.max_occupancy(), 2u);
}

TEST(FifoTest, SlowProducerFastConsumer) {
  Engine eng;
  Fifo<int> fifo(eng, 2);
  std::vector<int> out;
  eng.spawn(producer(eng, fifo, 50, 10));
  eng.spawn(consumer(eng, fifo, 50, 0, out));
  eng.run();
  EXPECT_EQ(out, iota_vec(50));
}

TEST(FifoTest, DepthOneBehavesLikeRegister) {
  Engine eng;
  Fifo<int> fifo(eng, 1);
  std::vector<int> out;
  eng.spawn(producer(eng, fifo, 20, 3));
  eng.spawn(consumer(eng, fifo, 20, 7, out));
  eng.run();
  EXPECT_EQ(out, iota_vec(20));
  EXPECT_EQ(fifo.max_occupancy(), 1u);
}

TEST(FifoTest, ProducerBlocksWhenFull) {
  Engine eng;
  Fifo<int> fifo(eng, 3);
  Cycles producer_finished = 0;
  struct P {
    static Task run(Engine& eng, Fifo<int>& fifo, Cycles& finished) {
      for (int i = 0; i < 4; ++i) co_await fifo.put(i);
      finished = eng.now();
    }
  };
  struct C {
    static Task run(Engine& eng, Fifo<int>& fifo) {
      co_await eng.delay(100);
      (void)co_await fifo.get();
    }
  };
  eng.spawn(P::run(eng, fifo, producer_finished));
  eng.spawn(C::run(eng, fifo));
  eng.run();
  // The 4th put cannot complete until the consumer frees a slot at t=100.
  EXPECT_EQ(producer_finished, 100u);
}

TEST(FifoTest, MultipleProducersRoundTripAllItems) {
  Engine eng;
  Fifo<int> fifo(eng, 4);
  std::vector<int> out;
  eng.spawn(producer(eng, fifo, 30, 1));
  eng.spawn(producer(eng, fifo, 30, 2));
  eng.spawn(consumer(eng, fifo, 60, 0, out));
  eng.run();
  ASSERT_EQ(out.size(), 60u);
  // Each producer's items appear in its own order (FIFO per producer).
  std::vector<int> seen_counts(30, 0);
  for (int v : out) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 30);
    ++seen_counts[v];
  }
  for (int c : seen_counts) EXPECT_EQ(c, 2);
}

TEST(FifoTest, MultipleConsumersDrainEverything) {
  Engine eng;
  Fifo<int> fifo(eng, 4);
  std::vector<int> out_a, out_b;
  eng.spawn(producer(eng, fifo, 40, 0));
  eng.spawn(consumer(eng, fifo, 20, 1, out_a));
  eng.spawn(consumer(eng, fifo, 20, 1, out_b));
  eng.run();
  EXPECT_EQ(out_a.size() + out_b.size(), 40u);
}

TEST(FifoTest, TryGetNonBlocking) {
  Engine eng;
  Fifo<int> fifo(eng, 2);
  int v = -1;
  EXPECT_FALSE(fifo.try_get(v));  // empty
  // The producer fills both slots and parks on its third put.
  eng.spawn(producer(eng, fifo, 3, 0));
  eng.run();
  EXPECT_TRUE(fifo.try_get(v));
  EXPECT_EQ(v, 0);
  // Freeing a slot admits the parked put.
  EXPECT_TRUE(fifo.try_get(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(fifo.try_get(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(fifo.try_get(v));
}

TEST(FifoTest, UnboundedNeverBlocksProducer) {
  Engine eng;
  Fifo<int> fifo(eng, Fifo<int>::kUnbounded);
  Cycles finished = 0;
  struct P {
    static Task run(Engine& eng, Fifo<int>& fifo, Cycles& finished) {
      for (int i = 0; i < 10'000; ++i) co_await fifo.put(i);
      finished = eng.now();
    }
  };
  eng.spawn(P::run(eng, fifo, finished));
  eng.run();
  EXPECT_EQ(finished, 0u);  // no consumer needed, no time passes
  EXPECT_EQ(fifo.size(), 10'000u);
}

TEST(FifoTest, MovesNonCopyablePayloads) {
  Engine eng;
  Fifo<std::unique_ptr<int>> fifo(eng, 2);
  struct P {
    static Task run(Fifo<std::unique_ptr<int>>& fifo) {
      co_await fifo.put(std::make_unique<int>(7));
    }
  };
  struct C {
    static Task run(Fifo<std::unique_ptr<int>>& fifo, int& got) {
      auto p = co_await fifo.get();
      got = *p;
    }
  };
  int got = 0;
  eng.spawn(P::run(fifo));
  eng.spawn(C::run(fifo, got));
  eng.run();
  EXPECT_EQ(got, 7);
}

// Property sweep: for any (capacity, producer gap, consumer gap) the channel
// delivers all items in order — the core dataflow-correctness invariant.
struct FifoParam {
  std::size_t capacity;
  Cycles produce_gap;
  Cycles consume_gap;
};

class FifoPropertyTest : public ::testing::TestWithParam<FifoParam> {};

TEST_P(FifoPropertyTest, DeliversAllItemsInOrder) {
  const FifoParam p = GetParam();
  Engine eng;
  Fifo<int> fifo(eng, p.capacity);
  std::vector<int> out;
  constexpr int kItems = 200;
  eng.spawn(producer(eng, fifo, kItems, p.produce_gap));
  eng.spawn(consumer(eng, fifo, kItems, p.consume_gap, out));
  eng.run();
  EXPECT_EQ(out, iota_vec(kItems));
  EXPECT_LE(fifo.max_occupancy(), p.capacity);
  // Throughput bound: the slower side dictates total time.
  const Cycles min_time =
      static_cast<Cycles>(kItems - 1) * std::max(p.produce_gap, p.consume_gap);
  EXPECT_GE(eng.now(), min_time);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityGapSweep, FifoPropertyTest,
    ::testing::Values(FifoParam{1, 0, 0}, FifoParam{1, 3, 0},
                      FifoParam{1, 0, 3}, FifoParam{2, 5, 2},
                      FifoParam{4, 2, 5}, FifoParam{8, 0, 1},
                      FifoParam{16, 1, 0}, FifoParam{3, 7, 7},
                      FifoParam{32, 11, 2}, FifoParam{5, 2, 11}),
    [](const ::testing::TestParamInfo<FifoParam>& info) {
      return "cap" + std::to_string(info.param.capacity) + "_pg" +
             std::to_string(info.param.produce_gap) + "_cg" +
             std::to_string(info.param.consume_gap);
    });

}  // namespace
}  // namespace looplynx::sim
