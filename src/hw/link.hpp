// Point-to-point AXI-Stream link model for the inter-node ring.
//
// Each link is simplex (paper Fig. 6(c): "the router operates in simplex
// mode") with fixed per-hop latency plus serialization time at the link
// bandwidth. Transfers on one link are serialized; the ring is composed of
// K independent links so neighbour exchanges in a round proceed in parallel.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace looplynx::hw {

struct StreamLinkConfig {
  /// Serialization bandwidth in bytes per cycle (paper: 8.49 GB/s at
  /// 285 MHz => ~29.8 B/cycle).
  double bytes_per_cycle = 29.8;
  /// Fixed hop latency (SERDES + FIFO crossing). Inter-SLR hops are a few
  /// cycles; inter-FPGA Aurora-style hops are hundreds of ns.
  sim::Cycles hop_latency_cycles = 64;
};

class StreamLink {
 public:
  StreamLink(sim::Engine& engine, StreamLinkConfig config,
             std::string name = "link")
      : engine_(&engine),
        config_(config),
        mutex_(engine),
        name_(std::move(name)) {}

  /// Cycles for `bytes` to fully arrive at the receiver.
  sim::Cycles transfer_cycles(std::uint64_t bytes) const;

  /// Simulated transfer of `bytes` over this link.
  sim::Task send(std::uint64_t bytes);

  /// Counts `hops` transfers of `bytes` each that crossed this link while
  /// nothing else wanted it, as send() would have one at a time.
  void record(std::uint64_t bytes, std::uint64_t hops) {
    total_bytes_ += hops * bytes;
    busy_cycles_ += hops * transfer_cycles(bytes);
  }

  /// Takes the link without waiting, for a transfer whose serialization
  /// is already under way (a fabric train cut mid-hop); false if the link
  /// is taken. finish() ends the transfer.
  bool try_hold() { return mutex_.try_lock(); }

  /// Ends a transfer of `bytes` that held the link for `cycles`, begun by
  /// send() or try_hold(): counts it and hands the link to the oldest
  /// waiter.
  void finish(std::uint64_t bytes, sim::Cycles cycles) {
    busy_cycles_ += cycles;
    total_bytes_ += bytes;
    mutex_.unlock();
  }

  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  sim::Cycles busy_cycles() const noexcept { return busy_cycles_; }
  const StreamLinkConfig& config() const noexcept { return config_; }
  const std::string& name() const noexcept { return name_; }

 private:
  sim::Engine* engine_;
  StreamLinkConfig config_;
  sim::Mutex mutex_;
  std::string name_;
  std::uint64_t total_bytes_ = 0;
  sim::Cycles busy_cycles_ = 0;
};

}  // namespace looplynx::hw
