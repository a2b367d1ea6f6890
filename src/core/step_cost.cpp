#include "core/step_cost.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace looplynx::core {

namespace {

/// `model` cut down to its first `n_layer` transformer blocks.
model::ModelConfig with_layers(model::ModelConfig model,
                               std::uint32_t n_layer) {
  model.n_layer = n_layer;
  return model;
}

}  // namespace

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

  // Every block runs the same stage schedule, so a token's cycles are
  // n_layer equal block periods plus the final-LN tail. Two shallow
  // copies at position 0 separate the two: one(0) = block + tail and
  // two(0) = 2 * block + tail.
  const System one_layer(arch_, with_layers(model_, 1));
  const sim::Cycles tail =
      2 * one_layer.token_cycles(0) -
      System(arch_, with_layers(model_, 2)).token_cycles(0);
  std::vector<sim::Cycles> probed(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probed[i] =
        tail + model_.n_layer * (one_layer.token_cycles(probes[i]) - tail);
  }

  // Premise guard: the full pipeline must agree at both ends of the table.
  for (std::size_t i : {std::size_t{0}, probes.size() - 1}) {
    const sim::Cycles full = system.token_cycles(probes[i]);
    if (full != probed[i]) {
      throw std::logic_error(
          "StepCostModel: " + model_.name + " on " +
          std::to_string(arch_.num_nodes) + " node(s) is not layer-periodic "
          "at position " + std::to_string(probes[i]) + ": full pipeline " +
          std::to_string(full) + " cycles, per-layer extrapolation " +
          std::to_string(probed[i]));
    }
  }

  step_.resize(max_seq);
  for (std::size_t i = 0; i + 1 < probes.size(); ++i) {
    const std::uint32_t lo = probes[i];
    const std::uint32_t hi = probes[i + 1];
    for (std::uint32_t pos = lo; pos < hi; ++pos) {
      const double t = static_cast<double>(pos - lo) /
                       static_cast<double>(hi - lo);
      step_[pos] = static_cast<sim::Cycles>(
          static_cast<double>(probed[i]) * (1.0 - t) +
          static_cast<double>(probed[i + 1]) * t);
    }
  }
  step_[max_seq - 1] = probed.back();

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
