// Tests for the ring network: functional all-gather correctness (any node
// count) and timed fabric behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <vector>

#include "net/fabric.hpp"
#include "net/ring.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace looplynx::net {
namespace {

TEST(FunctionalRingTest, SingleNodeIsIdentity) {
  FunctionalRing<int> ring(1);
  const auto buffers = ring.all_gather({{1, 2, 3}});
  ASSERT_EQ(buffers.size(), 1u);
  EXPECT_EQ(buffers[0], (std::vector<int>{1, 2, 3}));
}

TEST(FunctionalRingTest, FourNodesReconstructFullVector) {
  FunctionalRing<int> ring(4);
  std::vector<std::vector<int>> chunks{{0, 1}, {10, 11}, {20, 21}, {30, 31}};
  RingStats stats;
  const auto buffers = ring.all_gather(chunks, &stats);
  const std::vector<int> expect{0, 1, 10, 11, 20, 21, 30, 31};
  for (const auto& b : buffers) EXPECT_EQ(b, expect);
  EXPECT_TRUE(FunctionalRing<int>::buffers_consistent(buffers));
  // K-1 = 3 exchange rounds, each moving K = 4 chunks.
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.packs_sent, 12u);
}

TEST(FunctionalRingTest, InconsistencyDetectorWorks) {
  std::vector<std::vector<int>> good{{1, 2}, {1, 2}};
  std::vector<std::vector<int>> bad{{1, 2}, {1, 3}};
  EXPECT_TRUE(FunctionalRing<int>::buffers_consistent(good));
  EXPECT_FALSE(FunctionalRing<int>::buffers_consistent(bad));
}

class RingPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingPropertyTest, AllGatherMatchesConcatenationForAnyNodeCount) {
  const std::size_t nodes = GetParam();
  util::Rng rng(nodes * 1000 + 17);
  const std::size_t chunk = 48;
  std::vector<std::vector<float>> chunks(nodes, std::vector<float>(chunk));
  std::vector<float> expect;
  for (auto& c : chunks) {
    for (auto& v : c) v = static_cast<float>(rng.normal());
    expect.insert(expect.end(), c.begin(), c.end());
  }
  FunctionalRing<float> ring(nodes);
  RingStats stats;
  const auto buffers = ring.all_gather(chunks, &stats);
  ASSERT_EQ(buffers.size(), nodes);
  for (const auto& b : buffers) EXPECT_EQ(b, expect);
  if (nodes > 1) {
    EXPECT_EQ(stats.rounds, nodes - 1);
    EXPECT_EQ(stats.packs_sent, nodes * (nodes - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, RingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 16),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "nodes" + std::to_string(i.param);
                         });

TEST(RingFabricTest, SendDeliversToSuccessor) {
  sim::Engine eng;
  hw::StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 10};
  RingFabric fabric(eng, 4, cfg);
  struct Sender {
    static sim::Task run(RingFabric& fabric) {
      co_await fabric.send(1, Datapack{.bytes = 320, .src_node = 1});
    }
  };
  eng.spawn(Sender::run(fabric));
  eng.run();
  Datapack got;
  ASSERT_TRUE(fabric.rx(2).try_get(got));
  EXPECT_EQ(got.src_node, 1u);
  EXPECT_EQ(got.bytes, 320u);
  EXPECT_EQ(eng.now(), 20u);  // 10 hop + 320/32 serialize
  EXPECT_EQ(fabric.total_bytes(), 320u);
}

TEST(RingFabricTest, AllLinksOperateInParallel) {
  sim::Engine eng;
  hw::StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 0};
  RingFabric fabric(eng, 4, cfg);
  struct Sender {
    static sim::Task run(RingFabric& fabric, std::size_t from) {
      co_await fabric.send(from, Datapack{.bytes = 3200,
                                          .src_node =
                                              static_cast<std::uint32_t>(from)});
    }
  };
  for (std::size_t n = 0; n < 4; ++n) eng.spawn(Sender::run(fabric, n));
  eng.run();
  // Four simultaneous neighbour transfers take one serialization time, not
  // four — the ring is a distributed fabric, not a shared bus.
  EXPECT_EQ(eng.now(), 100u);
  for (std::size_t n = 0; n < 4; ++n) {
    Datapack got;
    ASSERT_TRUE(fabric.rx(n).try_get(got));
    EXPECT_EQ(got.src_node, (n + 3) % 4);
  }
}

TEST(RingFabricTest, PerLinkConfigsPriceEachHopIndependently) {
  sim::Engine eng;
  // Heterogeneous links: an SLR-to-SLR hop (fast, near-zero latency), an
  // FPGA-to-FPGA hop (narrow, long latency), and a mid-tier hop.
  RingFabric fabric(eng, {hw::StreamLinkConfig{.bytes_per_cycle = 32.0,
                                               .hop_latency_cycles = 0},
                          hw::StreamLinkConfig{.bytes_per_cycle = 8.0,
                                               .hop_latency_cycles = 5},
                          hw::StreamLinkConfig{.bytes_per_cycle = 16.0,
                                               .hop_latency_cycles = 20}});
  ASSERT_EQ(fabric.num_nodes(), 3u);
  EXPECT_EQ(fabric.link(0).config().bytes_per_cycle, 32.0);
  EXPECT_EQ(fabric.link(1).config().hop_latency_cycles, 5u);
  EXPECT_EQ(fabric.link(2).config().hop_latency_cycles, 20u);
  struct Sender {
    static sim::Task run(RingFabric& fabric, std::size_t from) {
      co_await fabric.send(from, Datapack{.bytes = 320,
                                          .src_node =
                                              static_cast<std::uint32_t>(from)});
    }
  };
  eng.spawn(Sender::run(fabric, 0));  // 320/32 + 0  = 10 cycles
  eng.spawn(Sender::run(fabric, 1));  // 320/8  + 5  = 45 cycles
  eng.run();
  // The two links run in parallel; the makespan is the slow link's price,
  // not the uniform-config price a single-config ctor would give both.
  EXPECT_EQ(eng.now(), 45u);
  EXPECT_EQ(fabric.rx(1).size(), 1u);
  EXPECT_EQ(fabric.rx(2).size(), 1u);
}

TEST(RingFabricTest, TotalBytesSumsOverAllLinks) {
  sim::Engine eng;
  hw::StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 0};
  RingFabric fabric(eng, 3, cfg);
  struct Sender {
    static sim::Task run(RingFabric& fabric, std::size_t from,
                         std::uint64_t bytes) {
      co_await fabric.send(from, Datapack{.bytes = bytes});
    }
  };
  eng.spawn(Sender::run(fabric, 0, 100));
  eng.spawn(Sender::run(fabric, 1, 250));
  eng.spawn(Sender::run(fabric, 1, 50));
  eng.run();
  // Per-link meters see only their own traffic; the fabric total is the sum.
  EXPECT_EQ(fabric.link(0).total_bytes(), 100u);
  EXPECT_EQ(fabric.link(1).total_bytes(), 300u);
  EXPECT_EQ(fabric.link(2).total_bytes(), 0u);
  EXPECT_EQ(fabric.total_bytes(), 400u);
}

TEST(RingFabricTest, TransferCutsThroughWithoutTouchingRxFifos) {
  sim::Engine eng;
  hw::StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 10};
  RingFabric fabric(eng, 4, cfg);
  struct Mover {
    static sim::Task run(RingFabric& fabric) {
      co_await fabric.transfer(0, 2, 320, 1);
    }
  };
  eng.spawn(Mover::run(fabric));
  eng.run();
  // Two hops (links 0 and 1) priced back to back: 2 x (10 + 320/32).
  EXPECT_EQ(eng.now(), 40u);
  // total_bytes() counts bytes x hops — the conservation the serve-layer
  // KV-migration test pins against migrated blocks x block bytes.
  EXPECT_EQ(fabric.link(0).total_bytes(), 320u);
  EXPECT_EQ(fabric.link(1).total_bytes(), 320u);
  EXPECT_EQ(fabric.total_bytes(), 640u);
  // Cut-through: no router FIFO along the path sees the pack — the caller
  // owns delivery, unlike send().
  for (std::size_t n = 0; n < 4; ++n) EXPECT_TRUE(fabric.rx(n).empty());
}

TEST(RingFabricTest, MultiHopRelayPreservesFifoOrder) {
  sim::Engine eng;
  hw::StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 0};
  RingFabric fabric(eng, 3, cfg);
  struct Sender {
    static sim::Task run(RingFabric& fabric) {
      for (std::uint32_t b = 0; b < 3; ++b) {
        co_await fabric.send(0, Datapack{.bytes = 64, .src_node = 0,
                                         .block = b, .last = b == 2});
      }
    }
  };
  struct Relay {
    // Store-and-forward router at node 1: drains its rx FIFO and forwards
    // each pack one more hop, preserving arrival order.
    static sim::Task run(RingFabric& fabric) {
      for (int i = 0; i < 3; ++i) {
        Datapack pack = co_await fabric.rx(1).get();
        co_await fabric.send(1, pack);
      }
    }
  };
  eng.spawn(Sender::run(fabric));
  eng.spawn(Relay::run(fabric));
  eng.run();
  ASSERT_EQ(fabric.rx(2).size(), 3u);
  for (std::uint32_t b = 0; b < 3; ++b) {
    Datapack got;
    ASSERT_TRUE(fabric.rx(2).try_get(got));
    EXPECT_EQ(got.block, b);  // injection order survives both hops
    EXPECT_EQ(got.last, b == 2);
  }
  EXPECT_EQ(fabric.total_bytes(), 64u * 3 * 2);  // 3 packs x 2 hops
}

TEST(RingFabricTest, BackToBackSendsSerializeOnOneLink) {
  sim::Engine eng;
  hw::StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 0};
  RingFabric fabric(eng, 2, cfg);
  struct Sender {
    static sim::Task run(RingFabric& fabric) {
      co_await fabric.send(0, Datapack{.bytes = 320});
      co_await fabric.send(0, Datapack{.bytes = 320});
    }
  };
  eng.spawn(Sender::run(fabric));
  eng.run();
  EXPECT_EQ(eng.now(), 20u);
  EXPECT_EQ(fabric.rx(1).size(), 2u);
}

// ---- Fabric trains: RingFabric::transfer against a stepped reference ----

/// One transfer of a drawn set: when it starts, its path, and its packs.
/// Its start event is scheduled at cycle `stamp` (<= start), which places
/// it among the events due at `start`.
struct Move {
  sim::Cycles start = 0;
  sim::Cycles stamp = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t bytes = 0;
  std::uint32_t count = 0;
};

/// Where a transfer landed: the cycle, and the stamp (the cycle it was
/// scheduled at) of the event that ran its landing.
struct Landing {
  sim::Cycles at = 0;
  sim::Cycles stamp = 0;
  bool operator==(const Landing&) const = default;
};

/// What a set of moves did: each move's landing, the landing order and
/// every link's meters.
struct Outcome {
  std::vector<Landing> landed;
  std::vector<std::size_t> order;
  std::vector<std::uint64_t> link_bytes;
  std::vector<sim::Cycles> link_busy;
};

/// The reference: `count` packs, each sent over every hop of the path
/// through hw::StreamLink::send, one after another — the timing transfer()
/// must reproduce.
sim::Task stepped_transfer(RingFabric& fabric, std::size_t from,
                           std::size_t to, std::uint64_t bytes,
                           std::uint32_t count) {
  for (std::uint32_t k = 0; k < count; ++k) {
    for (std::size_t l = from; l != to; l = (l + 1) % fabric.num_nodes()) {
      co_await fabric.link(l).send(bytes);
    }
  }
}

sim::Task run_move(sim::Engine& eng, RingFabric& fabric, const Move& m,
                   std::size_t index, bool stepped, Outcome& out) {
  if (m.stamp != 0) co_await eng.delay(m.stamp);
  co_await eng.delay(m.start - m.stamp);
  if (stepped) {
    co_await stepped_transfer(fabric, m.from, m.to, m.bytes, m.count);
  } else {
    co_await fabric.transfer(m.from, m.to, m.bytes, m.count);
  }
  out.landed[index] = Landing{eng.now(), eng.current().stamp};
  out.order.push_back(index);
}

/// Runs `moves` on a fresh fabric, each spawned in order as its own root:
/// through transfer(), or through the stepped reference.
Outcome run_moves(const std::vector<hw::StreamLinkConfig>& links,
                  const std::vector<Move>& moves, bool stepped) {
  sim::Engine eng;
  RingFabric fabric(eng, links);
  Outcome out;
  out.landed.resize(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    eng.spawn(run_move(eng, fabric, moves[i], i, stepped, out));
  }
  eng.run();
  for (std::size_t l = 0; l < links.size(); ++l) {
    out.link_bytes.push_back(fabric.link(l).total_bytes());
    out.link_busy.push_back(fabric.link(l).busy_cycles());
  }
  return out;
}

/// Asserts that `trains` timed every move as `stepped` did and left the
/// same link meters. Landings due on the same cycle with the same stamp
/// may swap (DESIGN.md §9, "Fabric trains": the tie case); returns how
/// many positions of the landing order did.
std::size_t expect_same_timing(const Outcome& stepped, const Outcome& trains) {
  EXPECT_EQ(trains.landed, stepped.landed);
  EXPECT_EQ(trains.link_bytes, stepped.link_bytes);
  EXPECT_EQ(trains.link_busy, stepped.link_busy);
  EXPECT_EQ(trains.order.size(), stepped.order.size());
  std::size_t swapped = 0;
  for (std::size_t i = 0; i < trains.order.size(); ++i) {
    const std::size_t a = stepped.order[i];
    const std::size_t b = trains.order[i];
    if (a == b) continue;
    ++swapped;
    EXPECT_EQ(stepped.landed[a], stepped.landed[b])
        << "landing " << i << ": move " << a << " stepped, " << b
        << " with trains";
  }
  return swapped;
}

std::size_t expect_same_timing(const std::vector<hw::StreamLinkConfig>& links,
                               const std::vector<Move>& moves) {
  return expect_same_timing(run_moves(links, moves, true),
                            run_moves(links, moves, false));
}

/// True when `a` and `b` (from != to) cross a common link.
bool paths_share_a_link(const Move& a, const Move& b, std::size_t nodes) {
  for (std::size_t l = a.from; l != a.to; l = (l + 1) % nodes) {
    for (std::size_t m = b.from; m != b.to; m = (m + 1) % nodes) {
      if (l == m) return true;
    }
  }
  return false;
}

/// Seeded random transfer sets (the @with_seed style: every draw is
/// reproducible from its seed, printed on failure): 3–8-node rings with
/// uniform or per-link configs, 1–200 packs per transfer, same-cycle
/// starts scheduled at different cycles, and short paths that are often
/// disjoint alongside long ones that overlap. Each set must time identically through transfer() and
/// through the stepped reference.
TEST(FabricTrainTest, RandomTransferSetsMatchSteppedSends) {
  constexpr std::uint64_t kSets = 400;
  std::size_t swapped = 0;
  std::size_t contended = 0;  // moves that started on a claimed link
  std::size_t moves_drawn = 0;
  for (std::uint64_t seed = 1; seed <= kSets; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 8));
    const auto draw_link = [&rng] {
      const double rates[] = {1.0, 4.0, 16.0, 29.8, 32.0, 100.0};
      return hw::StreamLinkConfig{
          .bytes_per_cycle = rates[rng.next_below(6)],
          .hop_latency_cycles =
              rng.next_below(3) == 0 ? 0 : rng.next_below(200)};
    };
    std::vector<hw::StreamLinkConfig> links(nodes, draw_link());
    if (rng.next_below(2) == 0) {
      for (auto& l : links) l = draw_link();
    }
    const sim::Cycles horizons[] = {0, 50, 2000, 50000};
    const sim::Cycles horizon = horizons[rng.next_below(4)];
    const bool short_paths = rng.next_below(3) == 0;
    std::vector<Move> moves(rng.uniform_int(1, 10));
    for (std::size_t i = 0; i < moves.size(); ++i) {
      Move& m = moves[i];
      m.start = i > 0 && rng.next_below(3) == 0
                    ? moves[i - 1].start
                    : rng.next_below(horizon + 1);
      if (rng.next_below(3) == 0) m.stamp = rng.next_below(m.start + 1);
      m.from = rng.next_below(nodes);
      const std::size_t hops =
          short_paths ? 1 + rng.next_below(2) : 1 + rng.next_below(nodes - 1);
      m.to = (m.from + hops) % nodes;
      m.bytes = 1 + rng.next_below(4096);
      m.count = static_cast<std::uint32_t>(rng.uniform_int(1, 200));
    }
    const Outcome stepped = run_moves(links, moves, true);
    swapped += expect_same_timing(stepped, run_moves(links, moves, false));
    moves_drawn += moves.size();
    for (std::size_t j = 0; j < moves.size(); ++j) {
      for (std::size_t i = 0; i < moves.size(); ++i) {
        if (i != j && moves[i].start <= moves[j].start &&
            moves[j].start < stepped.landed[i].at &&
            paths_share_a_link(moves[i], moves[j], nodes)) {
          ++contended;
          break;
        }
      }
    }
    if (HasFailure()) break;
  }
  std::printf("%zu moves, %zu started on a claimed path, %zu landings "
              "swapped among same-cycle same-stamp ties\n",
              moves_drawn, contended, swapped);
  // The draws must reach the cut-and-step path, not only whole trains.
  EXPECT_GT(contended, moves_drawn / 10);
}

/// A 4-node ring of 10-cycle hops (320-byte packs at 32 B/cycle, no hop
/// latency) for the hand-worked edge cases below.
std::vector<hw::StreamLinkConfig> ten_cycle_ring() {
  return std::vector<hw::StreamLinkConfig>(
      4, hw::StreamLinkConfig{.bytes_per_cycle = 32.0,
                              .hop_latency_cycles = 0});
}

TEST(FabricTrainTest, UncontendedTrainLandsAtItsClosedForm) {
  const std::vector<Move> moves = {{.from = 0, .to = 3, .bytes = 320,
                                    .count = 3}};
  const Outcome out = run_moves(ten_cycle_ring(), moves, false);
  // 3 packs x 3 hops x 10 cycles; the wake is stamped at the last hop's
  // start, as that hop's own delay would be.
  EXPECT_EQ(out.landed[0], (Landing{90, 80}));
  EXPECT_EQ(out.link_bytes, (std::vector<std::uint64_t>{960, 960, 960, 0}));
  EXPECT_EQ(out.link_busy, (std::vector<sim::Cycles>{30, 30, 30, 0}));
  expect_same_timing(ten_cycle_ring(), moves);
}

TEST(FabricTrainTest, NewcomerOnTheLinkOfTheHopInProgress) {
  // A train 0 -> 3 is on link 1 (cycles 10-20) when a 30-cycle transfer
  // 1 -> 2 arrives at 15: it waits for that hop, holds link 1 for 20-50,
  // and the train's second pack waits for link 1 from 40 to 50.
  const std::vector<Move> moves = {
      {.from = 0, .to = 3, .bytes = 320, .count = 3},
      {.start = 15, .from = 1, .to = 2, .bytes = 960, .count = 1}};
  const Outcome out = run_moves(ten_cycle_ring(), moves, false);
  EXPECT_EQ(out.landed[1].at, 50u);
  EXPECT_EQ(out.landed[0].at, 100u);
  expect_same_timing(ten_cycle_ring(), moves);
}

TEST(FabricTrainTest, NewcomerOnALaterLinkOfThePath) {
  // The newcomer takes link 2 at 15, before the train reaches it at 20:
  // the train's hop there waits until 35 and every later hop slips 15.
  const std::vector<Move> moves = {
      {.from = 0, .to = 3, .bytes = 320, .count = 3},
      {.start = 15, .from = 2, .to = 3, .bytes = 640, .count = 1}};
  const Outcome out = run_moves(ten_cycle_ring(), moves, false);
  EXPECT_EQ(out.landed[1].at, 35u);
  EXPECT_EQ(out.landed[0].at, 105u);
  expect_same_timing(ten_cycle_ring(), moves);
}

TEST(FabricTrainTest, NewcomerOnAHopEndSortsByStamp) {
  // The train 0 -> 2's hop 1 (link 1) ends at 20 with stamp 10. A
  // 20-cycle newcomer on link 0 due at 20 and stamped 0 runs before that
  // hop ends: it finds link 0 free and the train's next pack waits for it.
  // Stamped 15 it runs after: the train's next pack has taken link 0 and
  // the newcomer waits.
  for (const bool before : {true, false}) {
    SCOPED_TRACE(before ? "stamped before the hop end" : "stamped after");
    const std::vector<Move> moves = {
        {.from = 0, .to = 2, .bytes = 320, .count = 2},
        {.start = 20, .stamp = before ? 0u : 15u, .from = 0, .to = 1,
         .bytes = 640, .count = 1}};
    const Outcome out = run_moves(ten_cycle_ring(), moves, false);
    EXPECT_EQ(out.landed[0].at, before ? 60u : 40u);
    EXPECT_EQ(out.landed[1].at, before ? 40u : 50u);
    EXPECT_EQ(out.link_busy, (std::vector<sim::Cycles>{40, 20, 0, 0}));
    expect_same_timing(ten_cycle_ring(), moves);
  }
}

TEST(FabricTrainTest, NewcomerOnTheTrainsLandingCycle) {
  // The train 0 -> 2 lands at 40 (stamp 30). A newcomer on link 1 due at
  // 40 and stamped 0 runs before the landing, cuts the train in its last
  // hop and waits for link 1; stamped 35 it finds the train landed.
  for (const sim::Cycles stamp : {sim::Cycles{0}, sim::Cycles{35}}) {
    SCOPED_TRACE("newcomer stamped " + std::to_string(stamp));
    const std::vector<Move> moves = {
        {.from = 0, .to = 2, .bytes = 320, .count = 2},
        {.start = 40, .stamp = stamp, .from = 1, .to = 2, .bytes = 320,
         .count = 1}};
    const Outcome out = run_moves(ten_cycle_ring(), moves, false);
    EXPECT_EQ(out.landed[0], (Landing{40, 30}));
    EXPECT_EQ(out.landed[1], (Landing{50, 40}));
    EXPECT_EQ(out.link_bytes, (std::vector<std::uint64_t>{640, 960, 0, 0}));
    expect_same_timing(ten_cycle_ring(), moves);
  }
}

TEST(FabricTrainTest, StealCutsAMigration) {
  // A KV migration of 104 1536-byte blocks over three 116-cycle hops
  // (29.8 B/cycle, 64-cycle hop latency), and a steal's 3072 prompt bytes
  // (168 cycles) crossing its middle link mid-stream. At 7000 the
  // migration is on link 0 until 7076; the steal takes link 1 at once, so
  // the migration's next hop waits until 7168 and every later hop slips
  // 92 cycles. Both land where per-block sends put them.
  const std::vector<hw::StreamLinkConfig> links(
      5, hw::StreamLinkConfig{.bytes_per_cycle = 29.8,
                              .hop_latency_cycles = 64});
  const std::vector<Move> moves = {
      {.from = 0, .to = 3, .bytes = 1536, .count = 104},
      {.start = 7000, .from = 1, .to = 2, .bytes = 3072, .count = 1}};
  const Outcome trains = run_moves(links, moves, false);
  EXPECT_EQ(trains.landed[1].at, 7168u);
  EXPECT_EQ(trains.landed[0].at, 104u * 3 * 116 + 92);
  EXPECT_EQ(expect_same_timing(run_moves(links, moves, true), trains), 0u);
}

TEST(FabricTrainTest, EmptyTransfersMakeNoEvent) {
  sim::Engine eng;
  RingFabric fabric(eng, ten_cycle_ring());
  struct Mover {
    static sim::Task run(RingFabric& fabric) {
      co_await fabric.transfer(0, 2, 0, 5);    // no bytes
      co_await fabric.transfer(0, 2, 320, 0);  // no packs
      co_await fabric.transfer(1, 1, 320, 5);  // no path
    }
  };
  eng.spawn(Mover::run(fabric));
  EXPECT_EQ(eng.run(), 1u);  // the spawn itself
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(fabric.total_bytes(), 0u);
}

/// The tie case DESIGN.md §9 documents: B, a one-pack 2 -> 3 transfer
/// spawned first, starts after delay(10); A, a two-pack 0 -> 1 transfer
/// spawned second, starts at once. Both land at 20 on events stamped 10,
/// and no link is shared. Stepped, A's second pack is scheduled after B's
/// only pack at cycle 10, so B lands first; A's train drew its wake at
/// cycle 0, so with trains A lands first.
TEST(FabricTrainTest, SameCycleSameStampTieLandsInBookingOrder) {
  const std::vector<Move> moves = {
      {.start = 10, .from = 2, .to = 3, .bytes = 320, .count = 1},
      {.start = 0, .from = 0, .to = 1, .bytes = 320, .count = 2}};
  const Outcome stepped = run_moves(ten_cycle_ring(), moves, true);
  const Outcome trains = run_moves(ten_cycle_ring(), moves, false);
  EXPECT_EQ(stepped.order, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(trains.order, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(expect_same_timing(stepped, trains), 2u);
  EXPECT_EQ(trains.landed[0], (Landing{20, 10}));
}

}  // namespace
}  // namespace looplynx::net
