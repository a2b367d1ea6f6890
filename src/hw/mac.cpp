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
  co_await engine_->delay(compute_cycles(macs));
}

}  // namespace looplynx::hw
