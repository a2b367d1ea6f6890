// Tests for the hardware component models: HBM channel, MAC array,
// stream link, resource vectors, platform database.
#include <gtest/gtest.h>

#include <vector>

#include "hw/hbm.hpp"
#include "hw/link.hpp"
#include "hw/mac.hpp"
#include "hw/platform.hpp"
#include "hw/resources.hpp"

namespace looplynx::hw {
namespace {

using sim::Cycles;
using sim::Engine;
using sim::Task;

TEST(PlatformTest, Table1RowsMatchPaper) {
  const auto rows = table1_platforms();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "Nvidia A100");
  EXPECT_DOUBLE_EQ(rows[0].memory_bandwidth_bps, 1935e9);
  EXPECT_DOUBLE_EQ(rows[0].tdp_watts, 300);
  EXPECT_EQ(rows[1].compute_unit_count, 9024);
  EXPECT_DOUBLE_EQ(rows[2].memory_bandwidth_bps, 201e9);
  EXPECT_DOUBLE_EQ(rows[2].tdp_watts, 75);
}

TEST(PlatformTest, LoopLynxClockingDerivedConstants) {
  // 8.49 GB/s at 285 MHz is ~29.8 bytes per cycle.
  EXPECT_NEAR(LoopLynxClocking::hbm_bytes_per_cycle(), 29.79, 0.05);
  EXPECT_NEAR(LoopLynxClocking::net_bytes_per_cycle(), 29.79, 0.05);
}

TEST(HbmTest, BurstCyclesScaleWithBytes) {
  Engine eng;
  HbmChannelConfig cfg{.bytes_per_cycle = 32.0,
                       .burst_setup_cycles = 10,
                       .burst_efficiency = 1.0};
  HbmChannel ch(eng, cfg);
  EXPECT_EQ(ch.burst_cycles(0), 0u);
  EXPECT_EQ(ch.burst_cycles(32), 11u);
  EXPECT_EQ(ch.burst_cycles(3200), 110u);
  // Larger transfers amortize setup: cycles/byte decreases.
  const double small = static_cast<double>(ch.burst_cycles(64)) / 64.0;
  const double large = static_cast<double>(ch.burst_cycles(65536)) / 65536.0;
  EXPECT_LT(large, small);
}

TEST(HbmTest, EfficiencyBelowOneSlowsTransfers) {
  Engine eng;
  HbmChannelConfig fast{.bytes_per_cycle = 32, .burst_setup_cycles = 0,
                        .burst_efficiency = 1.0};
  HbmChannelConfig slow = fast;
  slow.burst_efficiency = 0.5;
  HbmChannel a(eng, fast), b(eng, slow);
  EXPECT_EQ(b.burst_cycles(3200), 2 * a.burst_cycles(3200));
}

TEST(HbmTest, ConcurrentReadersSerializeOnOneChannel) {
  Engine eng;
  HbmChannelConfig cfg{.bytes_per_cycle = 32.0,
                       .burst_setup_cycles = 0,
                       .burst_efficiency = 1.0};
  HbmChannel ch(eng, cfg);
  struct Reader {
    static Task run(HbmChannel& ch, std::uint64_t bytes,
                    std::vector<Cycles>& done, Engine& eng) {
      co_await ch.read(bytes);
      done.push_back(eng.now());
    }
  };
  std::vector<Cycles> done;
  eng.spawn(Reader::run(ch, 320, done, eng));  // 10 cycles
  eng.spawn(Reader::run(ch, 320, done, eng));  // serialized after the first
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 10u);
  EXPECT_EQ(done[1], 20u);
  EXPECT_EQ(ch.total_bytes_read(), 640u);
  EXPECT_DOUBLE_EQ(ch.utilization(), 1.0);
}

TEST(HbmTest, IndependentChannelsRunInParallel) {
  Engine eng;
  HbmChannelConfig cfg{.bytes_per_cycle = 32.0,
                       .burst_setup_cycles = 0,
                       .burst_efficiency = 1.0};
  HbmChannel a(eng, cfg), b(eng, cfg);
  struct Reader {
    static Task run(HbmChannel& ch, std::uint64_t bytes) {
      co_await ch.read(bytes);
    }
  };
  eng.spawn(Reader::run(a, 3200));
  eng.spawn(Reader::run(b, 3200));
  eng.run();
  EXPECT_EQ(eng.now(), 100u);  // parallel, not 200
}

TEST(MacTest, ThroughputBoundPlusFixedOverhead) {
  Engine eng;
  MacArrayConfig cfg{.lanes = 32, .pipeline_depth = 8, .drain_cycles = 4};
  MacArray mac(eng, cfg);
  EXPECT_EQ(mac.compute_cycles(0), 0u);
  EXPECT_EQ(mac.compute_cycles(32), 8u + 1u + 4u);
  EXPECT_EQ(mac.compute_cycles(1024), 8u + 32u + 4u);
  EXPECT_EQ(mac.compute_cycles(1025), 8u + 33u + 4u);  // ceil division
}

TEST(MacTest, MoreLanesAreFaster) {
  Engine eng;
  MacArray narrow(eng, MacArrayConfig{.lanes = 16, .pipeline_depth = 0,
                                      .drain_cycles = 0});
  MacArray wide(eng, MacArrayConfig{.lanes = 64, .pipeline_depth = 0,
                                    .drain_cycles = 0});
  EXPECT_GT(narrow.compute_cycles(1 << 16), wide.compute_cycles(1 << 16));
}

TEST(LinkTest, TransferIncludesHopLatency) {
  Engine eng;
  StreamLinkConfig cfg{.bytes_per_cycle = 32.0, .hop_latency_cycles = 100};
  StreamLink link(eng, cfg);
  EXPECT_EQ(link.transfer_cycles(0), 0u);
  EXPECT_EQ(link.transfer_cycles(32), 101u);
  EXPECT_EQ(link.transfer_cycles(3200), 200u);
}

TEST(ResourceTest, VectorArithmetic) {
  ResourceVector a{.dsp = 10, .lut = 100, .ff = 200, .bram = 4, .uram = 1};
  ResourceVector b{.dsp = 5, .lut = 50, .ff = 100, .bram = 2, .uram = 0};
  const ResourceVector sum = a + b;
  EXPECT_DOUBLE_EQ(sum.dsp, 15);
  EXPECT_DOUBLE_EQ(sum.lut, 150);
  const ResourceVector scaled = b * 2.0;
  EXPECT_DOUBLE_EQ(scaled.dsp, 10);
  EXPECT_DOUBLE_EQ(scaled.bram, 4);
}

TEST(ResourceTest, FitsWithinAndUtilization) {
  ResourceVector need{.dsp = 568, .lut = 220e3, .ff = 313e3, .bram = 641,
                      .uram = 4};
  const ResourceVector u50 = alveo_u50_budget();
  EXPECT_TRUE(need.fits_within(u50));
  EXPECT_GT(need.max_utilization(u50), 0.0);
  EXPECT_LT(need.max_utilization(u50), 1.0);
  // Double-size accelerator still fits the full device.
  EXPECT_TRUE((need * 2.0).fits_within(u50) ||
              (need * 2.0).bram > u50.bram);  // BRAM is the scarce one
}

TEST(ResourceTest, SlrIsHalfDevice) {
  const ResourceVector full = alveo_u50_budget();
  const ResourceVector slr = alveo_u50_slr_budget();
  EXPECT_DOUBLE_EQ(slr.dsp * 2, full.dsp);
  EXPECT_DOUBLE_EQ(slr.lut * 2, full.lut);
}

}  // namespace
}  // namespace looplynx::hw
