// HBM pseudo-channel timing model.
//
// Each pseudo-channel serves one outstanding burst at a time at a fixed
// sustained bandwidth (bytes/cycle) plus a fixed per-burst setup latency.
// The Fused MP kernel attaches one DMA engine per channel (paper Fig. 6(a)),
// so channel contention only arises when two kernels (e.g. MP weights and
// MHA KV-cache reads) share a channel — the model serializes such accesses
// through a per-channel mutex, matching AXI arbitration behaviour.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace looplynx::hw {

struct HbmChannelConfig {
  /// Sustained bandwidth in bytes per accelerator cycle. For the paper's
  /// parameters (8.49 GB/s at 285 MHz) this is ~29.8 B/cycle.
  double bytes_per_cycle = 29.8;
  /// Fixed cycles of burst setup (address phase + first-beat latency).
  sim::Cycles burst_setup_cycles = 24;
  /// Fraction of peak reached by long bursts (row-activation overheads).
  double burst_efficiency = 0.95;
};

class HbmChannel {
 public:
  HbmChannel(sim::Engine& engine, HbmChannelConfig config,
             std::string name = "hbm")
      : engine_(&engine),
        config_(config),
        mutex_(engine),
        name_(std::move(name)) {}

  /// Cycles a burst of `bytes` occupies the channel (excluding queueing).
  sim::Cycles burst_cycles(std::uint64_t bytes) const;

  /// Simulated burst read: queues on the channel, then occupies it for
  /// burst_cycles(bytes).
  sim::Task read(std::uint64_t bytes);

  /// Simulated burst write (same timing as read for this HBM generation).
  sim::Task write(std::uint64_t bytes);

  std::uint64_t total_bytes_read() const noexcept { return bytes_read_; }
  sim::Cycles busy_cycles() const noexcept { return busy_cycles_; }
  const std::string& name() const noexcept { return name_; }
  const HbmChannelConfig& config() const noexcept { return config_; }

  /// Channel utilization over [0, now].
  double utilization() const;

 private:
  sim::Task transfer(std::uint64_t bytes, bool is_write);

  sim::Engine* engine_;
  HbmChannelConfig config_;
  sim::Mutex mutex_;
  std::string name_;
  std::uint64_t bytes_read_ = 0;
  sim::Cycles busy_cycles_ = 0;
};

}  // namespace looplynx::hw
