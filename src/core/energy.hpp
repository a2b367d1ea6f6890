// Power/energy model for LoopLynx deployments and the A100 baseline.
//
// Calibration (documented in DESIGN.md §2): the paper reports measured
// energy ratios, not absolute power. Back-solving the published numbers
// (2-node: 1.67x speed-up at 37.3% of A100 energy; 4-node: 2.52x at 48.1%;
// per-node-count efficiency gains of 2.3x/2.7x/2.1x) yields a consistent
// linear model: ~24 W of static shell/HBM power per FPGA card plus ~19 W of
// dynamic power per active accelerator node, against ~100 W of A100 board
// power during small-batch int8 inference (well under its 300 W TDP).
#pragma once

#include <cstdint>

#include "core/arch_config.hpp"

namespace looplynx::core {

struct PowerModel {
  double fpga_static_watts = 24.0;   // shell + HBM + clocking per card
  double node_dynamic_watts = 19.0;  // one accelerator node under load
  double a100_inference_watts = 100.0;  // nvidia-smi during the run

  /// Total board power of a LoopLynx deployment.
  double fpga_power_watts(const ArchConfig& arch) const {
    return fpga_static_watts * arch.num_fpgas() +
           node_dynamic_watts * arch.num_nodes;
  }

  /// Energy in joules for a run of `seconds` on the accelerator.
  double fpga_energy_joules(const ArchConfig& arch, double seconds) const {
    return fpga_power_watts(arch) * seconds;
  }

  double a100_energy_joules(double seconds) const {
    return a100_inference_watts * seconds;
  }
};

/// Energy-efficiency comparison for one workload.
struct EnergyComparison {
  double fpga_joules = 0;
  double gpu_joules = 0;
  double fpga_tokens_per_joule = 0;
  double gpu_tokens_per_joule = 0;
  /// Normalized efficiency (fpga / gpu tokens-per-joule); the paper's
  /// Fig. 8(b) metric.
  double efficiency_ratio = 0;
  /// FPGA energy as a fraction of GPU energy (the "48.1%" style number).
  double energy_fraction = 0;
};

EnergyComparison compare_energy(const PowerModel& power,
                                const ArchConfig& arch, double fpga_seconds,
                                double gpu_seconds, std::uint64_t tokens);

}  // namespace looplynx::core
