// Timed model of one LoopLynx accelerator node (paper Fig. 2(a)).
//
// A node owns its macro dataflow kernels — Fused MP, Fused MHA and Fused
// LN&Res — plus DMA/HBM resources and a router port on the ring. The stage
// scheduler (the *temporal* half of the hybrid design) invokes the kernels
// in sequence for every transformer-block stage; each kernel internally runs
// as a set of concurrently simulated dataflow processes connected by FIFOs
// (the *spatial* half).
#pragma once

#include <cstdint>
#include <memory>

#include "core/arch_config.hpp"
#include "hw/hbm.hpp"
#include "hw/mac.hpp"
#include "model/config.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace looplynx::core {

/// Breakdown categories recorded by the node trace.
namespace category {
inline constexpr const char* kLinear = "linear";    // Fused MP kernel
inline constexpr const char* kMha = "mha";          // Fused MHA kernel
inline constexpr const char* kSoftmax = "softmax";  // exposed softmax
inline constexpr const char* kCriticalPath = "cp";  // LN/residual/quant ops
inline constexpr const char* kSync = "sync";        // exposed ring sync
inline constexpr const char* kScheduler = "sched";  // state-machine overhead
inline constexpr const char* kHost = "host";        // PCIe token turnaround
}  // namespace category

class Node {
 public:
  /// `fabric` may be null when the configuration has a single node.
  Node(sim::Engine& engine, const ArchConfig& arch,
       const model::ModelConfig& model, std::uint32_t node_id,
       net::RingFabric* fabric);

  /// Simulates one token through all transformer blocks. `pos` is the
  /// number of already-cached tokens (attention covers pos + 1 positions).
  sim::Task run_token(std::uint32_t pos);

  const sim::Trace& trace() const { return trace_; }
  sim::Trace& trace() { return trace_; }

  std::uint64_t hbm_bytes() const {
    return weight_stream_->total_bytes_read() + kv_stream_->total_bytes_read();
  }
  std::uint32_t node_id() const { return id_; }

 private:
  struct MpOp {
    const char* name;
    std::uint64_t rows_total;  // full output rows before node split
    std::uint64_t cols;        // input features
    bool gather;               // ring all-gather of the output sub-vector
    std::uint32_t gather_elem_bytes;  // wire width of gathered elements
    bool gelu;                 // GELU fused into the quant epilogue
  };

  enum class CpKind { kLnQuant, kResLnQuant, kRes, kFinalLn };

  // --- Stage implementations ---
  sim::Task mp_stage(MpOp op);
  sim::Task mha_stage(std::uint32_t seq);
  sim::Task cp_stage(CpKind kind);
  sim::Task sched_hop();

  // --- Fused MP internal dataflow processes ---
  sim::Task mp_dma_proc(const MpOp& op, std::uint32_t nblocks,
                        sim::Fifo<std::uint32_t>& out);
  sim::Task mp_mac_proc(const MpOp& op, std::uint32_t nblocks,
                        sim::Fifo<std::uint32_t>& in,
                        sim::Fifo<std::uint32_t>& out);
  sim::Task mp_quant_proc(const MpOp& op, std::uint32_t nblocks,
                          sim::Fifo<std::uint32_t>& in,
                          sim::Fifo<net::Datapack>& out,
                          sim::Cycles* compute_end);

  // --- Fused MHA internal dataflow processes ---
  sim::Task mha_score_proc(std::uint32_t seq, std::uint32_t heads,
                           sim::Fifo<std::uint32_t>& out);
  sim::Task mha_softmax_proc(std::uint32_t seq, std::uint32_t heads,
                             sim::Fifo<std::uint32_t>& in,
                             sim::Fifo<std::uint32_t>& out);
  sim::Task mha_mix_proc(std::uint32_t seq, std::uint32_t heads,
                         sim::Fifo<std::uint32_t>& in,
                         sim::Fifo<net::Datapack>& out,
                         sim::Cycles* compute_end);

  /// Ring all-gather of `npacks` locally produced packs. When
  /// `hide_network_sync` is set packs circulate as they are produced,
  /// overlapping compute; otherwise circulation starts only after the last
  /// pack is ready (the paper's non-hidden baseline). With `enabled` false
  /// (or a single node) the process only drains the FIFO.
  sim::Task router_gather(sim::Fifo<net::Datapack>& in, std::uint32_t npacks,
                          bool enabled = true);

  /// Both halves of a memory/compute overlap (streamed operands).
  sim::Task overlap_read_compute(hw::HbmChannel& channel, std::uint64_t bytes,
                                 hw::MacArray& mac, std::uint64_t macs);

  // --- Cost formulas ---
  std::uint32_t rows_per_node(std::uint64_t rows_total) const;
  std::uint32_t block_rows(std::uint32_t nblock_index,
                           std::uint32_t rows_node) const;
  sim::Cycles vec_cycles(std::uint64_t len, std::uint32_t lanes) const;
  sim::Cycles quant_cycles(std::uint64_t values, bool gelu) const;
  sim::Cycles softmax_cycles(std::uint32_t seq) const;

  sim::Engine* engine_;
  ArchConfig arch_;
  model::ModelConfig model_;
  std::uint32_t id_;
  net::RingFabric* fabric_;
  sim::Trace trace_;

  std::unique_ptr<hw::HbmChannel> weight_stream_;  // n_channel aggregated
  std::unique_ptr<hw::HbmChannel> kv_stream_;      // kv_channels aggregated
  std::unique_ptr<hw::MacArray> mpu_;
  std::unique_ptr<hw::MacArray> score_mac_;
  std::unique_ptr<hw::MacArray> mix_mac_;
};

}  // namespace looplynx::core
