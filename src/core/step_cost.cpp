#include "core/step_cost.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace looplynx::core {

StepCostModel::StepCostModel(const System& system, std::uint32_t probe_stride)
    : arch_(system.arch()), model_(system.model()) {
  if (probe_stride == 0) {
    throw std::invalid_argument("StepCostModel: probe_stride must be >= 1");
  }
  const std::uint32_t max_seq = model_.max_seq_len;

  std::vector<std::uint32_t> probes;
  for (std::uint32_t pos = 0; pos < max_seq; pos += probe_stride) {
    probes.push_back(pos);
  }
  if (probes.back() != max_seq - 1) probes.push_back(max_seq - 1);
  const std::vector<TokenCost> probed = system.token_costs(probes);

  step_.resize(max_seq);
  for (std::size_t i = 0; i + 1 < probes.size(); ++i) {
    const std::uint32_t lo = probes[i];
    const std::uint32_t hi = probes[i + 1];
    for (std::uint32_t pos = lo; pos < hi; ++pos) {
      const double t = static_cast<double>(pos - lo) /
                       static_cast<double>(hi - lo);
      step_[pos] = static_cast<sim::Cycles>(
          static_cast<double>(probed[i].cycles) * (1.0 - t) +
          static_cast<double>(probed[i + 1].cycles) * t);
    }
  }
  step_[max_seq - 1] = probed.back().cycles;

  prefix_.resize(max_seq + 1);
  prefix_[0] = 0;
  for (std::uint32_t pos = 0; pos < max_seq; ++pos) {
    prefix_[pos + 1] = prefix_[pos] + step_[pos];
  }

  // Analytic Fused-MP bounds (int8: one weight byte == one MAC).
  const double weight_bytes_per_node =
      static_cast<double>(model_.weight_bytes_per_token(1)) / arch_.num_nodes;
  const double stream_bytes_per_cycle = static_cast<double>(arch_.n_channel) *
                                        arch_.hbm_bytes_per_cycle() *
                                        arch_.hbm_efficiency;
  weight_stream_cycles_ =
      static_cast<sim::Cycles>(weight_bytes_per_node / stream_bytes_per_cycle);
  weight_mac_cycles_ = static_cast<sim::Cycles>(
      weight_bytes_per_node / static_cast<double>(arch_.mpu_lanes()));
}

sim::Cycles StepCostModel::decode_run_cycles(std::uint32_t pos,
                                             std::uint32_t k) const {
  const std::uint32_t last = max_positions() - 1;
  const std::uint32_t from = std::min(pos, last);
  // Positions [from, last) are priced as themselves; the rest at `last`.
  const std::uint32_t below = std::min(k, last - from);
  return prefix_[from + below] - prefix_[from] +
         static_cast<sim::Cycles>(k - below) * step_[last];
}

sim::Cycles StepCostModel::decode_batch_cycles(
    const std::vector<std::uint32_t>& positions) const {
  if (positions.empty()) return 0;
  // Exact identity for a lone step, immune to analytic-estimate skew.
  if (positions.size() == 1) return step_cycles(positions.front());
  const sim::Cycles mp_single =
      std::max(weight_stream_cycles_, weight_mac_cycles_);
  // Per-token residual: everything except the shareable MP pass (MHA,
  // critical-path ops, sync, per-stage scheduling).
  sim::Cycles total = 0;
  for (std::uint32_t pos : positions) {
    const sim::Cycles s = step_cycles(pos);
    total += s > mp_single ? s - mp_single : 0;
  }
  total += std::max(weight_stream_cycles_,
                    static_cast<sim::Cycles>(positions.size()) *
                        weight_mac_cycles_);
  return total;
}

}  // namespace looplynx::core
