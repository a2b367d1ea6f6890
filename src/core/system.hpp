// Multi-node LoopLynx timed system: builds the engine, nodes and ring
// fabric, then prices an end-to-end request (prefill + decode) token by
// token, exactly like the host loop in paper Fig. 2(b).
//
// Every transformer block runs the same eight-stage schedule of reused
// kernels (the temporal half of the hybrid design), so everything a token
// costs repeats exactly from block to block: its cycles, each node-0
// breakdown category, its HBM bytes and its ring bytes. For each such field
//   x(p) = tail + n_layer * (one(p) - tail),  tail = 2 * one(0) - two(0),
// where one(p) and two(p) are the field at position p on one- and two-layer
// copies of the model, and the tail is the final LayerNorm. token_costs()
// prices positions this way, ~n_layer times cheaper than the full pipeline,
// and guards the premise: it also runs the full-depth token at the first
// and last position and throws std::logic_error, naming the config and the
// field, on any mismatch. token_cycles() is the full-depth reference.
#pragma once

#include <cstdint>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace looplynx::core {

/// What one token step costs, host sync excluded.
struct TokenCost {
  sim::Cycles cycles = 0;
  sim::Trace trace;             // node-0 breakdown (core/node.hpp)
  std::uint64_t hbm_bytes = 0;  // every node
  std::uint64_t net_bytes = 0;  // ring fabric, bytes x hops
};

struct RunResult {
  std::uint32_t prefill_tokens = 0;
  std::uint32_t decode_tokens = 0;

  sim::Cycles total_cycles = 0;    // whole request, host sync included
  sim::Cycles prefill_cycles = 0;
  sim::Cycles decode_cycles = 0;

  double total_ms = 0;
  double prefill_ms = 0;
  double decode_ms = 0;
  double avg_token_ms = 0;         // total / (prefill + decode)
  double avg_decode_token_ms = 0;  // decode only, host sync included
  double decode_tokens_per_s = 0;

  /// Node-0 breakdown over the whole request (categories in
  /// core/node.hpp), host sync included.
  sim::Trace trace;

  std::uint64_t hbm_bytes = 0;
  std::uint64_t net_bytes = 0;
};

class System {
 public:
  System(ArchConfig arch, model::ModelConfig model);

  const ArchConfig& arch() const { return arch_; }
  const model::ModelConfig& model() const { return model_; }

  /// Prices every token of a [prefill : decode] request through
  /// token_costs() and returns the totals. Throws std::invalid_argument
  /// unless 1 <= prefill + decode <= model().max_seq_len.
  RunResult run(std::uint32_t prefill_tokens,
                std::uint32_t decode_tokens) const;

  /// Cost of one token step at each of `positions` (`pos` tokens already
  /// cached), priced through the per-layer identity above and guarded at
  /// the first and last position. Throws std::invalid_argument unless
  /// every position is below model().max_seq_len.
  std::vector<TokenCost> token_costs(
      const std::vector<std::uint32_t>& positions) const;

  /// Cycles one token step takes with `pos` tokens already cached, host
  /// sync excluded, from the full-depth pipeline: the reference that
  /// token_costs() extrapolates.
  sim::Cycles token_cycles(std::uint32_t pos) const;

 private:
  ArchConfig arch_;
  model::ModelConfig model_;
};

}  // namespace looplynx::core
