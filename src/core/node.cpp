#include "core/node.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace looplynx::core {

namespace {

std::uint32_t ceil_div_u32(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint32_t>((a + b - 1) / b);
}

}  // namespace

Node::Node(sim::Engine& engine, const ArchConfig& arch,
           const model::ModelConfig& model, std::uint32_t node_id,
           net::RingFabric* fabric)
    : engine_(&engine),
      arch_(arch),
      model_(model),
      id_(node_id),
      fabric_(fabric) {
  arch_.validate();
  model_.validate();
  assert(model_.n_head % arch_.num_nodes == 0);
  assert(model_.d_model % arch_.num_nodes == 0);
  assert(model_.d_ff % arch_.num_nodes == 0);
  assert(arch_.num_nodes == 1 || fabric_ != nullptr);

  // Unit names are "n<id>.<unit>". Built by appends: GCC 12's -Wrestrict
  // false positive (PR105651) fires on `literal + std::string&&`.
  std::string prefix = "n";
  prefix += std::to_string(id_);

  // The n_channel weight channels (and the KV channels) are private to this
  // node and always transfer symmetric shards in lockstep, so they are
  // modeled as one aggregated channel of n x the per-channel bandwidth.
  hw::HbmChannelConfig weight_cfg{
      .bytes_per_cycle = arch_.hbm_bytes_per_cycle() * arch_.n_channel,
      .burst_setup_cycles = arch_.dma_setup_cycles,
      .burst_efficiency = arch_.hbm_efficiency};
  weight_stream_ = std::make_unique<hw::HbmChannel>(
      engine, weight_cfg, prefix + ".weights");

  hw::HbmChannelConfig kv_cfg{
      .bytes_per_cycle = arch_.hbm_bytes_per_cycle() * arch_.kv_channels,
      .burst_setup_cycles = arch_.dma_setup_cycles,
      .burst_efficiency = arch_.hbm_efficiency};
  kv_stream_ = std::make_unique<hw::HbmChannel>(
      engine, kv_cfg, prefix + ".kv");

  mpu_ = std::make_unique<hw::MacArray>(
      engine,
      hw::MacArrayConfig{.lanes = arch_.mpu_lanes(),
                         .pipeline_depth = arch_.mac_pipeline_depth,
                         .drain_cycles = 4},
      prefix + ".mpu");
  score_mac_ = std::make_unique<hw::MacArray>(
      engine,
      hw::MacArrayConfig{.lanes = arch_.score_lanes,
                         .pipeline_depth = arch_.mac_pipeline_depth,
                         .drain_cycles = 4},
      prefix + ".score");
  mix_mac_ = std::make_unique<hw::MacArray>(
      engine,
      hw::MacArrayConfig{.lanes = arch_.mix_lanes,
                         .pipeline_depth = arch_.mac_pipeline_depth,
                         .drain_cycles = 4},
      prefix + ".mix");
}

// ---------------------------------------------------------------------------
// Cost formulas
// ---------------------------------------------------------------------------

std::uint32_t Node::rows_per_node(std::uint64_t rows_total) const {
  return static_cast<std::uint32_t>(rows_total / arch_.num_nodes);
}

std::uint32_t Node::block_rows(std::uint32_t block_index,
                               std::uint32_t rows_node) const {
  const std::uint32_t start = block_index * arch_.mp_block_rows;
  return std::min(arch_.mp_block_rows, rows_node - start);
}

sim::Cycles Node::vec_cycles(std::uint64_t len, std::uint32_t lanes) const {
  return arch_.cp_fixed_cycles + (len + lanes - 1) / lanes;
}

sim::Cycles Node::quant_cycles(std::uint64_t values, bool gelu) const {
  const sim::Cycles per_pass =
      arch_.quant_fixed_cycles + (values + arch_.quant_lanes - 1) /
                                     arch_.quant_lanes;
  // GELU shares the quant unit's SIMD lanes: one extra pass.
  return gelu ? 2 * per_pass : per_pass;
}

sim::Cycles Node::softmax_cycles(std::uint32_t seq) const {
  // Two passes over the scores: exponentiation + global sum (softmax.1),
  // then normalization into weighted scores (softmax.2) — paper Fig. 4(b).
  return arch_.softmax_fixed_cycles +
         2ULL * ((seq + arch_.softmax_lanes - 1) / arch_.softmax_lanes);
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

sim::Task Node::overlap_read_compute(hw::HbmChannel& channel,
                                     std::uint64_t bytes, hw::MacArray& mac,
                                     std::uint64_t macs) {
  // Streamed operation: the MAC array consumes the burst as it arrives, so
  // the op takes max(read, compute); both units are busy for their share.
  sim::CountdownLatch latch(*engine_, 2);
  engine_->spawn(sim::run_then_count_down(channel.read(bytes), latch));
  engine_->spawn(sim::run_then_count_down(mac.compute(macs), latch));
  co_await latch.wait();
}

sim::Task Node::router_gather(sim::Fifo<net::Datapack>& in,
                              std::uint32_t npacks, bool enabled) {
  const std::uint32_t k = arch_.num_nodes;
  if (k <= 1 || !enabled) {
    // Drain-only path: the op's outputs stay local (e.g. QKV head slices).
    for (std::uint32_t p = 0; p < npacks; ++p) (void)co_await in.get();
    co_return;
  }
  if (arch_.hide_network_sync) {
    // Packs circulate as soon as they are produced, overlapping compute
    // (paper Fig. 4(c)); only the last pack's rounds are exposed.
    for (std::uint32_t p = 0; p < npacks; ++p) {
      net::Datapack pack = co_await in.get();
      for (std::uint32_t round = 1; round < k; ++round) {
        co_await fabric_->send(id_, pack);
        pack = co_await fabric_->rx(id_).get();
      }
    }
  } else {
    // Baseline: wait for the whole sub-vector, then synchronize.
    std::vector<net::Datapack> packs;
    packs.reserve(npacks);
    for (std::uint32_t p = 0; p < npacks; ++p) {
      packs.push_back(co_await in.get());
    }
    for (net::Datapack& pack : packs) {
      for (std::uint32_t round = 1; round < k; ++round) {
        co_await fabric_->send(id_, pack);
        pack = co_await fabric_->rx(id_).get();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused MP kernel (paper Fig. 6(a))
// ---------------------------------------------------------------------------

sim::Task Node::mp_dma_proc(const MpOp& op, std::uint32_t nblocks,
                            sim::Fifo<std::uint32_t>& out) {
  const std::uint32_t rows_node = rows_per_node(op.rows_total);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(block_rows(b, rows_node)) * op.cols;
    co_await weight_stream_->read(bytes);  // int8 weights, burst mode
    co_await out.put(b);
  }
}

sim::Task Node::mp_mac_proc(const MpOp& op, std::uint32_t nblocks,
                            sim::Fifo<std::uint32_t>& in,
                            sim::Fifo<std::uint32_t>& out) {
  const std::uint32_t rows_node = rows_per_node(op.rows_total);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const std::uint32_t block = co_await in.get();
    const std::uint64_t macs =
        static_cast<std::uint64_t>(block_rows(block, rows_node)) * op.cols;
    co_await mpu_->compute(macs);
    co_await out.put(block);
  }
}

sim::Task Node::mp_quant_proc(const MpOp& op, std::uint32_t nblocks,
                              sim::Fifo<std::uint32_t>& in,
                              sim::Fifo<net::Datapack>& out,
                              sim::Cycles* compute_end) {
  const std::uint32_t rows_node = rows_per_node(op.rows_total);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const std::uint32_t block = co_await in.get();
    const std::uint32_t rows = block_rows(block, rows_node);
    co_await engine_->delay(quant_cycles(rows, op.gelu));
    co_await out.put(net::Datapack{
        .bytes = static_cast<std::uint64_t>(rows) * op.gather_elem_bytes,
        .src_node = id_,
        .block = block,
        .hops_left = arch_.num_nodes - 1,
        .last = block + 1 == nblocks});
  }
  *compute_end = engine_->now();
}

sim::Task Node::mp_stage(MpOp op) {
  const sim::Cycles begin = engine_->now();
  const std::uint32_t rows_node = rows_per_node(op.rows_total);
  const std::uint32_t nblocks = ceil_div_u32(rows_node, arch_.mp_block_rows);

  sim::Fifo<std::uint32_t> to_mac(*engine_, 2, "mp.to_mac");
  sim::Fifo<std::uint32_t> to_quant(*engine_, 2, "mp.to_quant");
  sim::Fifo<net::Datapack> to_router(
      *engine_, arch_.hide_network_sync ? 4 : nblocks + 1, "mp.to_router");

  sim::Cycles compute_end = begin;
  sim::CountdownLatch latch(*engine_, 4);
  engine_->spawn(
      sim::run_then_count_down(mp_dma_proc(op, nblocks, to_mac), latch));
  engine_->spawn(sim::run_then_count_down(
      mp_mac_proc(op, nblocks, to_mac, to_quant), latch));
  engine_->spawn(sim::run_then_count_down(
      mp_quant_proc(op, nblocks, to_quant, to_router, &compute_end), latch));
  engine_->spawn(sim::run_then_count_down(
      router_gather(to_router, nblocks, op.gather), latch));
  co_await latch.wait();

  const sim::Cycles end = engine_->now();
  trace_.add(category::kLinear, begin, compute_end);
  if (end > compute_end) trace_.add(category::kSync, compute_end, end);
}

// ---------------------------------------------------------------------------
// Fused MHA kernel (paper Fig. 6(b))
// ---------------------------------------------------------------------------

sim::Task Node::mha_score_proc(std::uint32_t seq, std::uint32_t heads,
                               sim::Fifo<std::uint32_t>& out) {
  const std::uint64_t hd = model_.head_dim();
  for (std::uint32_t h = 0; h < heads; ++h) {
    // Key-cache burst (int8) streamed into the first MAC array.
    co_await overlap_read_compute(*kv_stream_, seq * hd, *score_mac_,
                                  static_cast<std::uint64_t>(seq) * hd);
    co_await out.put(h);
  }
}

sim::Task Node::mha_softmax_proc(std::uint32_t seq, std::uint32_t heads,
                                 sim::Fifo<std::uint32_t>& in,
                                 sim::Fifo<std::uint32_t>& out) {
  for (std::uint32_t h = 0; h < heads; ++h) {
    const std::uint32_t head = co_await in.get();
    co_await engine_->delay(softmax_cycles(seq));
    co_await out.put(head);
  }
}

sim::Task Node::mha_mix_proc(std::uint32_t seq, std::uint32_t heads,
                             sim::Fifo<std::uint32_t>& in,
                             sim::Fifo<net::Datapack>& out,
                             sim::Cycles* compute_end) {
  const std::uint64_t hd = model_.head_dim();
  for (std::uint32_t h = 0; h < heads; ++h) {
    const std::uint32_t head = co_await in.get();
    // Value-cache burst into the second MAC array (token mixing), then the
    // head's output chunk passes through the quant unit.
    co_await overlap_read_compute(*kv_stream_, seq * hd, *mix_mac_,
                                  static_cast<std::uint64_t>(seq) * hd);
    co_await engine_->delay(quant_cycles(hd, /*gelu=*/false));
    co_await out.put(net::Datapack{.bytes = hd,
                                   .src_node = id_,
                                   .block = head,
                                   .hops_left = arch_.num_nodes - 1,
                                   .last = h + 1 == heads});
  }
  *compute_end = engine_->now();
}

sim::Task Node::mha_stage(std::uint32_t seq) {
  const sim::Cycles begin = engine_->now();
  const std::uint32_t heads = model_.n_head / arch_.num_nodes;
  const std::uint64_t hd = model_.head_dim();
  sim::Cycles compute_end = begin;
  sim::Cycles softmax_exposed = 0;

  if (arch_.headwise_pipeline) {
    // Head-wise task-level pipeline: score(h+2) || softmax(h+1) || mix(h).
    sim::Fifo<std::uint32_t> to_softmax(*engine_, 1, "mha.to_softmax");
    sim::Fifo<std::uint32_t> to_mix(*engine_, 1, "mha.to_mix");
    sim::Fifo<net::Datapack> to_router(*engine_, 2, "mha.to_router");
    sim::CountdownLatch latch(*engine_, 4);
    engine_->spawn(sim::run_then_count_down(
        mha_score_proc(seq, heads, to_softmax), latch));
    engine_->spawn(sim::run_then_count_down(
        mha_softmax_proc(seq, heads, to_softmax, to_mix), latch));
    engine_->spawn(sim::run_then_count_down(
        mha_mix_proc(seq, heads, to_mix, to_router, &compute_end), latch));
    engine_->spawn(
        sim::run_then_count_down(router_gather(to_router, heads), latch));
    co_await latch.wait();
  } else {
    // Baseline: heads processed one at a time, softmax fully exposed.
    sim::Fifo<net::Datapack> to_router(
        *engine_, arch_.hide_network_sync ? 2 : heads + 1, "mha.to_router");
    sim::CountdownLatch latch(*engine_, 1);
    engine_->spawn(
        sim::run_then_count_down(router_gather(to_router, heads), latch));
    for (std::uint32_t h = 0; h < heads; ++h) {
      co_await overlap_read_compute(*kv_stream_, seq * hd, *score_mac_,
                                    static_cast<std::uint64_t>(seq) * hd);
      const sim::Cycles sm = softmax_cycles(seq);
      co_await engine_->delay(sm);
      softmax_exposed += sm;
      co_await overlap_read_compute(*kv_stream_, seq * hd, *mix_mac_,
                                    static_cast<std::uint64_t>(seq) * hd);
      co_await engine_->delay(quant_cycles(hd, /*gelu=*/false));
      co_await to_router.put(net::Datapack{.bytes = hd,
                                           .src_node = id_,
                                           .block = h,
                                           .hops_left = arch_.num_nodes - 1,
                                           .last = h + 1 == heads});
    }
    compute_end = engine_->now();
    co_await latch.wait();
  }

  const sim::Cycles end = engine_->now();
  // Attribute exposed softmax separately so the Fig. 5 ablation can show it
  // disappearing under the head-wise pipeline.
  trace_.add_cycles(category::kSoftmax, softmax_exposed);
  const sim::Cycles mha_busy = compute_end - begin;
  trace_.add_cycles(category::kMha,
                    mha_busy > softmax_exposed ? mha_busy - softmax_exposed
                                               : 0);
  if (end > compute_end) trace_.add(category::kSync, compute_end, end);
}

// ---------------------------------------------------------------------------
// Fused LN&Res kernel + scheduler hops
// ---------------------------------------------------------------------------

sim::Task Node::cp_stage(CpKind kind) {
  const sim::Cycles begin = engine_->now();
  const std::uint64_t d = model_.d_model;
  sim::Cycles cost = 0;
  if (arch_.fuse_ln_res) {
    const std::uint32_t lanes = arch_.cp_lanes_fused;
    switch (kind) {
      case CpKind::kLnQuant:
      case CpKind::kResLnQuant:
        // Residual overlapped with the LN mean/variance pass; quantization
        // overlapped with the normalize pass: two exposed passes total.
        cost = 2 * vec_cycles(d, lanes);
        break;
      case CpKind::kRes:
        cost = 0;  // folded into the next LN&Res invocation
        break;
      case CpKind::kFinalLn:
        cost = 2 * vec_cycles(d, lanes);
        break;
    }
  } else {
    const std::uint32_t lanes = arch_.cp_lanes_base;
    switch (kind) {
      case CpKind::kLnQuant:
        cost = 3 * vec_cycles(d, lanes);  // mean/var, normalize, quant
        break;
      case CpKind::kResLnQuant:
        cost = 4 * vec_cycles(d, lanes);  // residual + the three above
        break;
      case CpKind::kRes:
        cost = vec_cycles(d, lanes);
        break;
      case CpKind::kFinalLn:
        cost = 2 * vec_cycles(d, lanes);
        break;
    }
  }
  if (cost > 0) co_await engine_->delay(cost);
  trace_.add(category::kCriticalPath, begin, engine_->now());
}

sim::Task Node::sched_hop() {
  const sim::Cycles begin = engine_->now();
  co_await engine_->delay(arch_.scheduler_overhead_cycles);
  trace_.add(category::kScheduler, begin, engine_->now());
}

// ---------------------------------------------------------------------------
// Token schedule (paper Fig. 3(c.1))
// ---------------------------------------------------------------------------

sim::Task Node::run_token(std::uint32_t pos) {
  const std::uint32_t seq = pos + 1;  // includes the token being processed
  const std::uint64_t d = model_.d_model;
  const std::uint64_t f = model_.d_ff;

  for (std::uint32_t layer = 0; layer < model_.n_layer; ++layer) {
    (void)layer;
    // Stage 1: LN1 (+ residual of the previous block when fused) + quant.
    co_await sched_hop();
    co_await cp_stage(CpKind::kLnQuant);
    // Stage 2: QKV projection — outputs stay head-local, no ring sync.
    co_await sched_hop();
    co_await mp_stage(MpOp{.name = "qkv",
                           .rows_total = 3 * d,
                           .cols = d,
                           .gather = false,
                           .gather_elem_bytes = 1,
                           .gelu = false});
    // Stage 3: multi-head attention over local heads; the int8 attention
    // sub-vector is gathered so every node holds the full vector for proj.
    co_await sched_hop();
    co_await mha_stage(seq);
    // Stage 4: output projection; fp16 partial outputs gathered for the
    // residual connection.
    co_await sched_hop();
    co_await mp_stage(MpOp{.name = "proj",
                           .rows_total = d,
                           .cols = d,
                           .gather = true,
                           .gather_elem_bytes = 2,
                           .gelu = false});
    // Stage 5: residual + LN2 + quant.
    co_await sched_hop();
    co_await cp_stage(CpKind::kResLnQuant);
    // Stage 6: FC1 with fused GELU + int8 gather.
    co_await sched_hop();
    co_await mp_stage(MpOp{.name = "fc1",
                           .rows_total = f,
                           .cols = d,
                           .gather = true,
                           .gather_elem_bytes = 1,
                           .gelu = true});
    // Stage 7: FC2; fp16 partials gathered for the residual.
    co_await sched_hop();
    co_await mp_stage(MpOp{.name = "fc2",
                           .rows_total = d,
                           .cols = f,
                           .gather = true,
                           .gather_elem_bytes = 2,
                           .gelu = false});
    // Stage 8: second residual — only exposed without the fused kernel.
    if (!arch_.fuse_ln_res) {
      co_await cp_stage(CpKind::kRes);
    }
  }
  co_await cp_stage(CpKind::kFinalLn);
}

}  // namespace looplynx::core
