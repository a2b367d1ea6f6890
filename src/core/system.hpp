// Multi-node LoopLynx timed system: builds the engine, nodes and ring
// fabric, then simulates an end-to-end request (prefill + decode) token by
// token, exactly like the host loop in paper Fig. 2(b).
#pragma once

#include <cstdint>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace looplynx::core {

struct RunOptions {
  /// Simulate every k-th token and linearly interpolate the rest. Token
  /// latency depends on sequence position only through the (linear) KV
  /// length, so interpolation is accurate; use 1 for exact runs.
  std::uint32_t token_sample_stride = 1;
  /// Retain per-token timings in the result.
  bool keep_token_timings = false;
};

struct TokenTiming {
  std::uint32_t index = 0;   // position in the request
  bool is_prefill = false;
  sim::Cycles cycles = 0;    // accelerator cycles for this token
  bool simulated = false;    // false when interpolated
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

  /// Node-0 breakdown over the *simulated* tokens (categories in
  /// core/node.hpp). With stride 1 this tiles the whole run.
  sim::Trace trace;

  std::uint64_t hbm_bytes = 0;   // simulated tokens only
  std::uint64_t net_bytes = 0;
  double mpu_utilization = 0;    // over the simulated period

  std::vector<TokenTiming> tokens;  // filled when keep_token_timings
};

class System {
 public:
  System(ArchConfig arch, model::ModelConfig model);

  const ArchConfig& arch() const { return arch_; }
  const model::ModelConfig& model() const { return model_; }

  /// Simulates a [prefill : decode] request and returns aggregate timing.
  /// Throws std::invalid_argument unless 1 <= prefill + decode <=
  /// model().max_seq_len and options.token_sample_stride >= 1.
  RunResult run(std::uint32_t prefill_tokens, std::uint32_t decode_tokens,
                const RunOptions& options = {}) const;

  /// Cycles one token step takes with `pos` tokens already cached, host
  /// sync excluded. This is the primitive the serve layer's StepCostModel
  /// probes to price scheduler iterations without re-simulating whole
  /// requests.
  sim::Cycles token_cycles(std::uint32_t pos) const;

  /// Convenience: average per-token latency (ms) of a request.
  double avg_token_latency_ms(std::uint32_t prefill_tokens,
                              std::uint32_t decode_tokens,
                              const RunOptions& options = {}) const;

 private:
  ArchConfig arch_;
  model::ModelConfig model_;
};

}  // namespace looplynx::core
