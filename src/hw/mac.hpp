// MAC-array (accumulator-multiplier) timing model.
//
// The paper's MPU is "accumulator-multiplier based MAC hardware" organized
// as n_channel MP slices x n_group MAC units (n_group = 32 to match the
// 32x8-bit HBM datapack). One MacArray instance models one slice group: it
// retires `lanes` int8 MACs per cycle once its pipeline is primed.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace looplynx::hw {

struct MacArrayConfig {
  /// Parallel MAC lanes (paper: n_group = 32 per MP slice).
  std::uint32_t lanes = 32;
  /// Pipeline depth: cycles from first operand to first accumulate.
  sim::Cycles pipeline_depth = 8;
  /// Extra cycles to drain/pack accumulated results into a datapack.
  sim::Cycles drain_cycles = 4;
};

class MacArray {
 public:
  MacArray(sim::Engine& engine, MacArrayConfig config, std::string name = "mac")
      : engine_(&engine), config_(config), name_(std::move(name)) {}

  /// Cycles to perform `macs` multiply-accumulates (throughput-bound with a
  /// fixed fill + drain overhead).
  sim::Cycles compute_cycles(std::uint64_t macs) const;

  /// Simulated execution of `macs` MAC operations.
  sim::Task compute(std::uint64_t macs);

  const MacArrayConfig& config() const noexcept { return config_; }
  const std::string& name() const noexcept { return name_; }

 private:
  sim::Engine* engine_;
  MacArrayConfig config_;
  std::string name_;
};

}  // namespace looplynx::hw
