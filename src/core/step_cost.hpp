// Per-token step-cost model for the serving scheduler.
//
// The continuous-batching scheduler (src/serve/) prices every iteration in
// accelerator cycles before it runs, so it cannot afford to re-simulate the
// dataflow pipeline per token. Token cost depends on sequence position only
// through the KV length and is piecewise-linear in it (the MHA kernel's
// score/mix loops grow linearly; block quantization rounds to mp_block_rows
// granularity), so this model probes a configurable stride of positions
// once and interpolates between probes. With probe_stride == 1 the table is
// exact.
//
// Probes are priced by core::System::token_costs, which extrapolates a
// one-layer copy of the model to full depth and guards the result against
// the full pipeline (core/system.hpp), so the exact table is cheap.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/arch_config.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "sim/engine.hpp"

namespace looplynx::core {

class StepCostModel {
 public:
  /// Prices positions {0, stride, 2*stride, ..., max_seq_len - 1} as
  /// `system.token_cycles` would (via `system.token_costs`) and fills
  /// the in-between positions by linear interpolation. Throws
  /// std::invalid_argument if probe_stride == 0.
  explicit StepCostModel(const System& system, std::uint32_t probe_stride = 64);

  /// Convenience: constructs the System internally.
  StepCostModel(const ArchConfig& arch, const model::ModelConfig& model,
                std::uint32_t probe_stride = 64)
      : StepCostModel(System(arch, model), probe_stride) {}

  /// Cycles to process one token with `pos` tokens already cached
  /// (host sync excluded).
  sim::Cycles step_cycles(std::uint32_t pos) const { return step_.at(pos); }

  /// Cycles to process an L-token prompt back to back, i.e. the sum of
  /// step_cycles over positions [0, L). O(1) via a prefix-sum table.
  sim::Cycles prefill_cycles(std::uint32_t prompt_len) const {
    return prefix_.at(prompt_len);
  }

  /// Pipeline occupancy of one prefill *chunk*: prompt positions
  /// [start, start + tokens) pushed back to back. The first chunk
  /// (start == 0) pays the full weight-stream ramp that prefill_cycles
  /// includes; a continuation chunk resumes against the KV its earlier
  /// chunks already cached, so every position is priced at its true KV
  /// offset and, for any partition of [0, L),
  ///   sum(prefill_chunk_cycles(start_i, n_i)) == prefill_cycles(L).
  /// The real extra cost of chunking — one host sync per additional
  /// chunk — is charged by the scheduler, not here.
  sim::Cycles prefill_chunk_cycles(std::uint32_t start,
                                   std::uint32_t tokens) const {
    return prefix_.at(start + tokens) - prefix_.at(start);
  }

  /// Pipeline cycles of `k` lone decode steps back to back from position
  /// `pos` on: the sum of step_cycles(min(pos + i, max_positions() - 1))
  /// over i in [0, k), each position clamped as the scheduler prices it.
  /// O(1) via the prefix-sum table.
  sim::Cycles decode_run_cycles(std::uint32_t pos, std::uint32_t k) const;

  /// Pipeline cycles to rebuild a preempted request's KV from scratch: the
  /// prompt plus every decode token it had produced, re-run as one prefill
  /// over positions [0, kv_len). Identical to prefill_cycles(kv_len) —
  /// recompute-style preemption (serve::PreemptPolicy::kRecomputeYoungest)
  /// re-pays this through chunked prefill when the victim is rescheduled,
  /// and the fleet metrics use it to price the work a preemption throws
  /// away. The extra per-chunk host sync is charged by the scheduler, not
  /// here.
  sim::Cycles recompute_cycles(std::uint32_t kv_len) const {
    return prefill_cycles(kv_len);
  }

  /// PCIe turnaround the host pays once per scheduler iteration (the cost
  /// continuous batching amortizes across the batch).
  sim::Cycles host_sync_cycles() const { return arch_.host_sync_cycles; }

  /// DMA price of landing `bytes` of migrated KV state in this replica's
  /// HBM (disaggregated prefill/decode fleets): one host round-trip to
  /// program the engine, the descriptor setup, then the burst at HBM
  /// write bandwidth. Same shape as the prefix cache's swap pricing — the
  /// wire time is charged separately by the net::RingFabric links.
  sim::Cycles kv_ingest_cycles(std::uint64_t bytes) const {
    return arch_.host_sync_cycles + arch_.dma_setup_cycles +
           static_cast<sim::Cycles>(
               std::ceil(static_cast<double>(bytes) /
                         arch_.hbm_bytes_per_cycle()));
  }

  /// Analytic single-token Fused-MP MAC bound, per node: cycles for the
  /// MAC array to consume one token's weights. The pipeline overlaps it
  /// with the weight stream from HBM, so a lone decode step runs at
  /// max(stream, mac) — stream-bound for the paper's configuration.
  sim::Cycles weight_mac_cycles() const { return weight_mac_cycles_; }

  /// Pipeline occupancy of `positions.size()` decode steps that share one
  /// weight-stream pass (the continuous-batching fast path): each streamed
  /// weight block is applied to every batch member's vector, so the MP
  /// kernel pays max(stream, B x mac) once instead of B x max(stream, mac),
  /// while the KV-length-dependent portions (MHA, critical path) remain
  /// per-token. Equals step_cycles(pos) for a single-element batch.
  sim::Cycles decode_batch_cycles(
      const std::vector<std::uint32_t>& positions) const;

  /// Number of modeled positions (== model max_seq_len).
  std::uint32_t max_positions() const {
    return static_cast<std::uint32_t>(step_.size());
  }

  const ArchConfig& arch() const { return arch_; }
  const model::ModelConfig& model() const { return model_; }
  double cycles_to_ms(sim::Cycles c) const { return arch_.cycles_to_ms(c); }

 private:
  ArchConfig arch_;
  model::ModelConfig model_;
  std::vector<sim::Cycles> step_;    // step_[pos], pos in [0, max_seq)
  std::vector<sim::Cycles> prefix_;  // prefix_[p] = sum of step_[0..p)
  sim::Cycles weight_stream_cycles_ = 0;
  sim::Cycles weight_mac_cycles_ = 0;
};

}  // namespace looplynx::core
