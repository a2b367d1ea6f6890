// Functional (bit-exact) multi-node LoopLynx execution.
//
// This is the arithmetic half of the co-simulation: the same W8A8 GPT-2
// computation as quant::Gpt2Int8, but partitioned exactly like the hardware
// (paper Fig. 2(c)) — linear layers split column-parallel along the output
// dimension, the KV cache split head-wise, and every sub-vector
// reconstructed through the functional ring all-gather. The invariant tested
// by the suite: for any node count, outputs are bitwise identical to the
// single-device quantized model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "net/ring.hpp"
#include "quant/int8_model.hpp"

namespace looplynx::core {

class FunctionalSystem {
 public:
  FunctionalSystem(const quant::Gpt2Int8Weights& weights,
                   std::uint32_t num_nodes);

  std::uint32_t num_nodes() const { return num_nodes_; }
  const model::ModelConfig& config() const { return weights_->config; }

  /// Runs one token through the distributed accelerator; returns the final
  /// hidden state. Internally asserts that all nodes' buffers stay
  /// consistent after every ring synchronization.
  std::vector<float> forward_token(std::uint32_t token_id);

  std::uint32_t argmax_token(std::span<const float> hidden) const;
  std::vector<std::uint32_t> generate(std::span<const std::uint32_t> prompt,
                                      std::uint32_t num_tokens);

  std::uint32_t position() const { return position_; }

  /// Total ring packs exchanged so far (consistency bookkeeping).
  std::uint64_t ring_packs() const { return ring_packs_; }

  /// Per-node resident KV-cache bytes (head-wise partition).
  std::uint64_t kv_bytes_per_node() const;

 private:
  /// Tied-embedding output projection of a final hidden state.
  std::vector<float> logits(std::span<const float> hidden) const;

  /// Ring all-gather over per-node fp32 chunks; returns the full vector and
  /// checks inter-node consistency.
  std::vector<float> gather_f32(std::vector<std::vector<float>> chunks);
  std::vector<std::int8_t> gather_i8(
      std::vector<std::vector<std::int8_t>> chunks);

  const quant::Gpt2Int8Weights* weights_;
  std::uint32_t num_nodes_;
  std::uint32_t heads_per_node_;
  std::uint32_t position_ = 0;
  std::uint64_t ring_packs_ = 0;
  // Node-local KV partitions (node n owns heads [n*hpn, (n+1)*hpn)).
  std::vector<model::KvCache8> kv_;
};

}  // namespace looplynx::core
