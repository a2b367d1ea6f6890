// Analytic A100 timing model for the paper's GPU comparison (Fig. 8).
//
// Small-batch GPT-2 inference on an A100 is not compute-bound: the decode
// step launches hundreds of small kernels per token (torch-int W8A8 path),
// so per-token latency is dominated by a launch/dispatch floor plus the
// weight-streaming time, while the prefill step processes the whole prompt
// in one batched pass and pays the launch floor only once. The constants are
// calibrated against the paper's measured ratios (LoopLynx 2-node = 1.67x,
// 4-node = 2.52x on long-generation workloads; A100 wins at [128:32]) and
// the Table I hardware figures.
#pragma once

#include <cstdint>

#include "model/config.hpp"

namespace looplynx::baseline {

struct A100Config {
  double memory_bandwidth_bps = 1935e9;  // Table I
  double memory_efficiency = 0.62;       // achieved fraction on GEMV streams
  double int8_tops = 624e12;             // dense INT8 tensor-core peak
  double prefill_utilization = 0.25;     // achieved fraction at batch<=128
  /// Kernel launch + dispatch floor per transformer layer per step (about a
  /// dozen kernels at a few microseconds each under CUDA graphs disabled).
  double launch_seconds_per_layer = 272e-6;
  /// Fixed per-step overhead outside the layers (sampling, embedding, sync).
  double step_overhead_seconds = 120e-6;
};

class A100Model {
 public:
  A100Model(const model::ModelConfig& model, A100Config config = {});

  /// Latency of one decode step at sequence position `seq` (seconds).
  double decode_token_seconds(std::uint32_t seq) const;

  /// Latency of a batched prefill over `prompt_len` tokens (seconds).
  double prefill_seconds(std::uint32_t prompt_len) const;

  /// End-to-end request latency (seconds).
  double request_seconds(std::uint32_t prefill_tokens,
                         std::uint32_t decode_tokens) const;

  /// Average per-token latency over a request (ms).
  double avg_token_ms(std::uint32_t prefill_tokens,
                      std::uint32_t decode_tokens) const;

  const A100Config& config() const { return config_; }

 private:
  model::ModelConfig model_;
  A100Config config_;
  double weight_bytes_ = 0;  // int8 transformer weights + lm head
};

}  // namespace looplynx::baseline
