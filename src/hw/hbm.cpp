#include "hw/hbm.hpp"

#include <cmath>

namespace looplynx::hw {

sim::Cycles HbmChannel::burst_cycles(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  const double effective_bpc =
      config_.bytes_per_cycle * config_.burst_efficiency;
  const auto data_cycles = static_cast<sim::Cycles>(
      std::ceil(static_cast<double>(bytes) / effective_bpc));
  return config_.burst_setup_cycles + data_cycles;
}

sim::Task HbmChannel::read(std::uint64_t bytes) {
  return transfer(bytes, /*is_write=*/false);
}

sim::Task HbmChannel::write(std::uint64_t bytes) {
  return transfer(bytes, /*is_write=*/true);
}

sim::Task HbmChannel::transfer(std::uint64_t bytes, bool is_write) {
  if (bytes == 0) co_return;
  co_await mutex_.lock();
  const sim::Cycles cost = burst_cycles(bytes);
  co_await engine_->delay(cost);
  busy_cycles_ += cost;
  if (!is_write) bytes_read_ += bytes;
  mutex_.unlock();
}

double HbmChannel::utilization() const {
  const sim::Cycles now = engine_->now();
  if (now == 0) return 0.0;
  return static_cast<double>(busy_cycles_) / static_cast<double>(now);
}

}  // namespace looplynx::hw
