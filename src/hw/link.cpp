#include "hw/link.hpp"

#include <cmath>

namespace looplynx::hw {

sim::Cycles StreamLink::transfer_cycles(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  const auto serialize = static_cast<sim::Cycles>(std::ceil(
      static_cast<double>(bytes) / config_.bytes_per_cycle));
  return config_.hop_latency_cycles + serialize;
}

sim::Task StreamLink::send(std::uint64_t bytes) {
  if (bytes == 0) co_return;
  co_await mutex_.lock();
  const sim::Cycles cost = transfer_cycles(bytes);
  co_await engine_->delay(cost);
  finish(bytes, cost);
}

}  // namespace looplynx::hw
