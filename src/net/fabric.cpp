#include "net/fabric.hpp"

#include <cassert>
#include <string>

namespace looplynx::net {

/// A transfer's hops, numbered g = 0 .. total-1 in the order they run:
/// hop g carries pack g / hops over path link g % hops. A train's state
/// lives here, not in the transfer's coroutine frame, because its timer
/// must outlive any wake the engine may still pop (see train_pool_).
struct RingFabric::Train {
  static constexpr std::uint64_t kUncut = UINT64_MAX;
  sim::Timer wake;
  std::size_t from = 0;
  std::size_t hops = 0;      // links on the path
  std::uint64_t bytes = 0;   // per pack
  std::uint64_t total = 0;   // hops x count
  sim::Cycles start = 0;     // first hop's start
  sim::Cycles round = 0;     // one pack over the whole path
  std::uint64_t ticket = 0;  // sequence number of the booked wake
  std::uint64_t cut_at = kUncut;  // hop in progress at the cut
};

namespace {

/// The link path hop `i` (0 <= i < hops) of a transfer from `from` takes.
std::size_t path_link(std::size_t from, std::size_t i, std::size_t n) {
  return (from + i) % n;
}

}  // namespace

RingFabric::RingFabric(sim::Engine& engine, std::size_t num_nodes,
                       hw::StreamLinkConfig link_config)
    : RingFabric(engine, std::vector<hw::StreamLinkConfig>(num_nodes,
                                                           link_config)) {}

RingFabric::RingFabric(sim::Engine& engine,
                       std::vector<hw::StreamLinkConfig> link_configs)
    : engine_(&engine),
      claims_(link_configs.size(), 0),
      trains_(link_configs.size(), nullptr) {
  const std::size_t num_nodes = link_configs.size();
  links_.reserve(num_nodes);
  rx_.reserve(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    links_.push_back(std::make_unique<hw::StreamLink>(
        engine, link_configs[n], "link" + std::to_string(n)));
    // Router FIFOs are deep enough to absorb a round of in-flight packs.
    rx_.push_back(std::make_unique<sim::Fifo<Datapack>>(
        engine, 64, "rx" + std::to_string(n)));
  }
}

RingFabric::~RingFabric() = default;

sim::Task RingFabric::send(std::size_t from, Datapack pack) {
  const std::size_t to = (from + 1) % num_nodes();
  co_await links_[from]->send(pack.bytes);
  co_await rx_[to]->put(pack);
}

sim::Task RingFabric::transfer(std::size_t from, std::size_t to,
                               std::uint64_t bytes, std::uint32_t count) {
  const std::size_t n = num_nodes();
  const std::size_t hops = (to + n - from) % n;
  if (bytes == 0 || count == 0 || hops == 0) co_return;
  bool claimed = false;  // by another transfer in flight
  for (std::size_t i = 0; i < hops; ++i) {
    if (claims_[path_link(from, i, n)]++ != 0) claimed = true;
  }
  const std::uint64_t total = static_cast<std::uint64_t>(count) * hops;
  std::uint64_t stepped_from = 0;  // first hop that steps
  if (!claimed) {
    Train& train = book(from, hops, bytes, total);
    co_await engine_->wait(train.wake);
    if (train.cut_at == Train::kUncut) {
      for (std::size_t i = 0; i < hops; ++i) {
        const std::size_t l = path_link(from, i, n);
        links_[l]->record(bytes, count);
        trains_[l] = nullptr;
      }
      stepped_from = total;
    } else {
      hw::StreamLink& link = *links_[path_link(from, train.cut_at % hops, n)];
      link.finish(bytes, link.transfer_cycles(bytes));
      stepped_from = train.cut_at + 1;
    }
    idle_trains_.push_back(&train);
  } else {
    for (std::size_t i = 0; i < hops; ++i) {
      Train* other = trains_[path_link(from, i, n)];
      if (other != nullptr) cut(*other);
    }
  }
  for (std::uint64_t g = stepped_from; g < total; ++g) {
    co_await links_[path_link(from, g % hops, n)]->send(bytes);
  }
  for (std::size_t i = 0; i < hops; ++i) --claims_[path_link(from, i, n)];
}

RingFabric::Train& RingFabric::book(std::size_t from, std::size_t hops,
                                    std::uint64_t bytes,
                                    std::uint64_t total) {
  if (idle_trains_.empty()) {
    train_pool_.push_back(std::make_unique<Train>());
    idle_trains_.push_back(train_pool_.back().get());
  }
  Train& train = *idle_trains_.back();
  idle_trains_.pop_back();
  const std::size_t n = num_nodes();
  train.from = from;
  train.hops = hops;
  train.bytes = bytes;
  train.total = total;
  train.start = engine_->now();
  train.round = 0;
  train.cut_at = Train::kUncut;
  for (std::size_t i = 0; i < hops; ++i) {
    const std::size_t l = path_link(from, i, n);
    trains_[l] = &train;
    train.round += links_[l]->transfer_cycles(bytes);
  }
  const sim::Cycles last =
      links_[path_link(from, hops - 1, n)]->transfer_cycles(bytes);
  const sim::Cycles landing = train.start + (total / hops) * train.round;
  train.ticket = engine_->arm(train.wake, landing, landing - last);
  return train;
}

void RingFabric::cut(Train& train) {
  const std::size_t n = num_nodes();
  // End of hop g: the packs before its own, plus its own path so far.
  const auto hop_end = [&](std::uint64_t g) {
    sim::Cycles end = train.start + (g / train.hops) * train.round;
    for (std::size_t i = 0; i <= g % train.hops; ++i) {
      end += links_[path_link(train.from, i, n)]->transfer_cycles(train.bytes);
    }
    return end;
  };
  const auto hop_start = [&](std::uint64_t g) {
    return g == 0 ? train.start : hop_end(g - 1);
  };
  // Stepped, hop g would end at a wake due at its end and scheduled at its
  // start; the train's ticket stands in for that wake's sequence number.
  // The hops whose wake sorts before the event being run are done. The
  // keys rise with g, and the last hop's is the live wake, which has not
  // run yet, so the hop in progress is found by bisection.
  const sim::EventKey& now = engine_->current();
  std::uint64_t lo = 0;
  std::uint64_t hi = train.total - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const sim::EventKey wake{hop_end(mid), hop_start(mid), train.ticket};
    if (wake < now) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::uint64_t done = lo;
  for (std::size_t i = 0; i < train.hops; ++i) {
    const std::size_t l = path_link(train.from, i, n);
    links_[l]->record(train.bytes,
                      done / train.hops + (i < done % train.hops ? 1 : 0));
    trains_[l] = nullptr;
  }
  [[maybe_unused]] const bool held =
      links_[path_link(train.from, done % train.hops, n)]->try_hold();
  assert(held && "an uncut train's links are its own");
  train.cut_at = done;
  engine_->arm(train.wake, hop_end(done), hop_start(done));
}

std::uint64_t RingFabric::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) total += l->total_bytes();
  return total;
}

}  // namespace looplynx::net
