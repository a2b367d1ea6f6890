#include "core/system.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/node.hpp"
#include "hw/link.hpp"
#include "net/fabric.hpp"
#include "sim/sync.hpp"

namespace looplynx::core {

namespace {

/// Simulates one token across all nodes; resolves when every node's stage
/// schedule for the token has completed (host-side synchronization point).
sim::Task token_step(sim::Engine& engine,
                     std::vector<std::unique_ptr<Node>>& nodes,
                     std::uint32_t pos) {
  sim::CountdownLatch latch(engine, nodes.size());
  for (auto& node : nodes) {
    engine.spawn(sim::run_then_count_down(node->run_token(pos), latch));
  }
  co_await latch.wait();
}

/// The ring fabric plus the per-node accelerators of one deployment.
struct Deployment {
  std::unique_ptr<net::RingFabric> fabric;
  std::vector<std::unique_ptr<Node>> nodes;
};

Deployment build_deployment(sim::Engine& engine, const ArchConfig& arch,
                            const model::ModelConfig& model) {
  Deployment d;
  if (arch.num_nodes > 1) {
    std::vector<hw::StreamLinkConfig> link_cfgs;
    link_cfgs.reserve(arch.num_nodes);
    for (std::uint32_t n = 0; n < arch.num_nodes; ++n) {
      link_cfgs.push_back(
          hw::StreamLinkConfig{.bytes_per_cycle = arch.net_bytes_per_cycle(),
                               .hop_latency_cycles = arch.hop_cycles(n)});
    }
    d.fabric = std::make_unique<net::RingFabric>(engine, std::move(link_cfgs));
  }
  d.nodes.reserve(arch.num_nodes);
  for (std::uint32_t n = 0; n < arch.num_nodes; ++n) {
    d.nodes.push_back(
        std::make_unique<Node>(engine, arch, model, n, d.fabric.get()));
  }
  return d;
}

}  // namespace

System::System(ArchConfig arch, model::ModelConfig model)
    : arch_(arch), model_(model) {
  arch_.validate();
  model_.validate();
  if (model_.n_head % arch_.num_nodes != 0 ||
      model_.d_model % arch_.num_nodes != 0 ||
      model_.d_ff % arch_.num_nodes != 0) {
    throw std::invalid_argument(
        "num_nodes must evenly divide n_head, d_model and d_ff for the "
        "head-wise / column-parallel partition");
  }
}

RunResult System::run(std::uint32_t prefill_tokens,
                      std::uint32_t decode_tokens,
                      const RunOptions& options) const {
  const std::uint64_t requested =
      std::uint64_t{prefill_tokens} + decode_tokens;
  if (requested < 1 || requested > model_.max_seq_len) {
    throw std::invalid_argument(
        "System::run: prefill + decode must be in [1, " +
        std::to_string(model_.max_seq_len) + "] (the model context), got " +
        std::to_string(requested));
  }
  if (options.token_sample_stride == 0) {
    throw std::invalid_argument(
        "System::run: token_sample_stride must be >= 1 (1 = every token)");
  }
  const auto total = static_cast<std::uint32_t>(requested);
  const std::uint32_t stride = options.token_sample_stride;

  sim::Engine engine;
  Deployment deploy = build_deployment(engine, arch_, model_);
  std::unique_ptr<net::RingFabric>& fabric = deploy.fabric;
  std::vector<std::unique_ptr<Node>>& nodes = deploy.nodes;

  // Simulate sampled positions; every position's cost is a function of the
  // KV length only, so intermediate positions interpolate linearly.
  std::vector<TokenTiming> timings(total);
  std::vector<std::uint32_t> sampled;
  for (std::uint32_t pos = 0; pos < total; ++pos) {
    const bool boundary = pos == 0 || pos + 1 == total ||
                          pos == prefill_tokens - 1 || pos == prefill_tokens;
    if (boundary || pos % stride == 0) sampled.push_back(pos);
  }

  for (std::uint32_t pos : sampled) {
    const sim::Cycles begin = engine.now();
    engine.spawn(token_step(engine, nodes, pos));
    engine.run();
    const sim::Cycles cost = engine.now() - begin;
    timings[pos] = TokenTiming{.index = pos,
                               .is_prefill = pos < prefill_tokens,
                               .cycles = cost,
                               .simulated = true};
  }

  // Interpolate skipped positions between the nearest simulated neighbours.
  std::uint32_t prev = sampled.front();
  for (std::size_t s = 1; s < sampled.size(); ++s) {
    const std::uint32_t next = sampled[s];
    for (std::uint32_t pos = prev + 1; pos < next; ++pos) {
      const double t = static_cast<double>(pos - prev) /
                       static_cast<double>(next - prev);
      const double interp =
          static_cast<double>(timings[prev].cycles) * (1.0 - t) +
          static_cast<double>(timings[next].cycles) * t;
      timings[pos] = TokenTiming{.index = pos,
                                 .is_prefill = pos < prefill_tokens,
                                 .cycles = static_cast<sim::Cycles>(interp),
                                 .simulated = false};
    }
    prev = next;
  }

  RunResult result;
  result.prefill_tokens = prefill_tokens;
  result.decode_tokens = decode_tokens;
  for (const TokenTiming& t : timings) {
    const sim::Cycles with_host = t.cycles + arch_.host_sync_cycles;
    result.total_cycles += with_host;
    if (t.is_prefill) {
      result.prefill_cycles += with_host;
    } else {
      result.decode_cycles += with_host;
    }
  }
  result.total_ms = arch_.cycles_to_ms(result.total_cycles);
  result.prefill_ms = arch_.cycles_to_ms(result.prefill_cycles);
  result.decode_ms = arch_.cycles_to_ms(result.decode_cycles);
  result.avg_token_ms = result.total_ms / static_cast<double>(total);
  if (decode_tokens > 0) {
    result.avg_decode_token_ms =
        result.decode_ms / static_cast<double>(decode_tokens);
    result.decode_tokens_per_s = 1e3 / result.avg_decode_token_ms;
  }

  result.trace = nodes[0]->trace();
  result.trace.add_cycles(category::kHost,
                          static_cast<sim::Cycles>(sampled.size()) *
                              arch_.host_sync_cycles);
  for (const auto& node : nodes) result.hbm_bytes += node->hbm_bytes();
  if (fabric) result.net_bytes = fabric->total_bytes();
  result.mpu_utilization = nodes[0]->mpu_utilization();
  if (options.keep_token_timings) result.tokens = std::move(timings);
  return result;
}

sim::Cycles System::token_cycles(std::uint32_t pos) const {
  assert(pos < model_.max_seq_len);
  sim::Engine engine;
  Deployment deploy = build_deployment(engine, arch_, model_);
  engine.spawn(token_step(engine, deploy.nodes, pos));
  engine.run();
  return engine.now();
}

double System::avg_token_latency_ms(std::uint32_t prefill_tokens,
                                    std::uint32_t decode_tokens,
                                    const RunOptions& options) const {
  return run(prefill_tokens, decode_tokens, options).avg_token_ms;
}

}  // namespace looplynx::core
