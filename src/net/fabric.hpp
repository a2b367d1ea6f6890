// Timed ring fabric: K simplex AXI-Stream links (node i -> node i+1 mod K)
// with per-link serialization and hop latency, delivering Datapack
// descriptors into per-node receive FIFOs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/link.hpp"
#include "net/datapack.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace looplynx::net {

class RingFabric {
 public:
  RingFabric(sim::Engine& engine, std::size_t num_nodes,
             hw::StreamLinkConfig link_config);

  /// Per-link configs (link i leaves node i): lets SLR-to-SLR hops and
  /// FPGA-to-FPGA hops carry different latencies.
  RingFabric(sim::Engine& engine,
             std::vector<hw::StreamLinkConfig> link_configs);

  ~RingFabric();

  std::size_t num_nodes() const noexcept { return links_.size(); }

  /// The link leaving node `from` toward its successor.
  hw::StreamLink& link(std::size_t from) { return *links_[from]; }

  /// Receive FIFO of `node` (packs arriving from its predecessor).
  sim::Fifo<Datapack>& rx(std::size_t node) { return *rx_[node]; }

  /// Sends `pack` from `from` to its successor: serializes on the link,
  /// then deposits the pack into the successor's receive FIFO.
  sim::Task send(std::size_t from, Datapack pack);

  /// Point-to-point transfer `from` -> `to` of `count` packs of `bytes`
  /// each: every pack is stored and forwarded over each link along the
  /// ring path (so total_bytes() counts bytes x hops x count), the packs
  /// one after another, and the transfer completes when the last pack's
  /// last hop has elapsed. Unlike send(), intermediate nodes cut through —
  /// nothing lands in rx() FIFOs — which is what a DMA-style bulk move
  /// (serve-layer KV migration) wants: the caller owns delivery, and a deep
  /// multi-hop burst cannot deadlock on a bounded router FIFO nobody
  /// drains. `bytes == 0`, `count == 0` or `from == to` moves nothing and
  /// makes no event.
  ///
  /// Timing equals a loop of hw::StreamLink::send over the hops, in one
  /// engine wake where it can. A transfer whose path no transfer in flight
  /// claims is booked as a *train*: its hops run back to back, so it lands
  /// at now + count x (sum of hop costs), and one wake there, stamped as
  /// the last hop's own would be, counts every hop on the links. A
  /// transfer that finds a claimed link first cuts each train sharing a
  /// link with it, and then steps hop by hop through StreamLink::send; a
  /// cut train steps its remaining hops too (DESIGN.md §9, "Fabric
  /// trains"). send() neither claims links nor cuts trains, so a fabric
  /// carries either sends or transfers, not both.
  sim::Task transfer(std::size_t from, std::size_t to, std::uint64_t bytes,
                     std::uint32_t count);

  /// Total bytes moved over all links.
  std::uint64_t total_bytes() const;

 private:
  struct Train;

  /// Books `total` hops of `bytes` from `from` over `hops` links as a
  /// train, in one wake at its landing. No other transfer in flight may
  /// claim a link of the path.
  Train& book(std::size_t from, std::size_t hops, std::uint64_t bytes,
              std::uint64_t total);

  /// Ends `train`'s run in one wake at the event being run: counts the
  /// hops done, holds the link of the hop in progress and re-arms the wake
  /// at that hop's end; the train steps from there.
  void cut(Train& train);

  sim::Engine* engine_;
  std::vector<std::unique_ptr<hw::StreamLink>> links_;
  std::vector<std::unique_ptr<sim::Fifo<Datapack>>> rx_;
  /// Per link: the transfers in flight whose path uses it.
  std::vector<std::uint32_t> claims_;
  /// Per link: the uncut train whose path uses it, if any. An uncut train
  /// is the only transfer claiming its links.
  std::vector<Train*> trains_;
  /// Every train made so far. A cut train leaves a superseded wake in the
  /// engine's heap, so its timer must outlive the transfer; idle ones are
  /// reused.
  std::vector<std::unique_ptr<Train>> train_pool_;
  std::vector<Train*> idle_trains_;
};

}  // namespace looplynx::net
