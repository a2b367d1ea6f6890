#include "hw/mac.hpp"

#include <cmath>

namespace looplynx::hw {

sim::Cycles MacArray::compute_cycles(std::uint64_t macs) const {
  if (macs == 0) return 0;
  const auto throughput_cycles = static_cast<sim::Cycles>(std::ceil(
      static_cast<double>(macs) / static_cast<double>(config_.lanes)));
  return config_.pipeline_depth + throughput_cycles + config_.drain_cycles;
}

sim::Task MacArray::compute(std::uint64_t macs) {
  if (macs == 0) co_return;
  const sim::Cycles cost = compute_cycles(macs);
  co_await engine_->delay(cost);
  busy_cycles_ += cost;
}

double MacArray::utilization() const {
  const sim::Cycles now = engine_->now();
  if (now == 0) return 0.0;
  return static_cast<double>(busy_cycles_) / static_cast<double>(now);
}

}  // namespace looplynx::hw
