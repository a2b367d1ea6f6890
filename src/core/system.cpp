#include "core/system.hpp"

#include <cassert>
#include <initializer_list>
#include <memory>
#include <numeric>
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

/// `model` cut down to its first `n_layer` transformer blocks.
model::ModelConfig with_layers(model::ModelConfig model,
                               std::uint32_t n_layer) {
  model.n_layer = n_layer;
  return model;
}

/// Simulates one token at `pos` on a fresh deployment of `model`.
TokenCost simulate_token(const ArchConfig& arch,
                         const model::ModelConfig& model, std::uint32_t pos) {
  sim::Engine engine;
  Deployment d = build_deployment(engine, arch, model);
  engine.spawn(token_step(engine, d.nodes, pos));
  engine.run();
  TokenCost cost;
  cost.cycles = engine.now();
  cost.trace = std::move(d.nodes[0]->trace());
  for (const auto& node : d.nodes) cost.hbm_bytes += node->hbm_bytes();
  if (d.fabric) cost.net_bytes = d.fabric->total_bytes();
  return cost;
}

/// The per-layer identity on one field. Unsigned wrap-around keeps it
/// exact whatever the sign of the tail.
std::uint64_t per_layer(std::uint64_t one_p, std::uint64_t one_0,
                        std::uint64_t two_0, std::uint32_t n_layer) {
  const std::uint64_t tail = 2 * one_0 - two_0;
  return tail + n_layer * (one_p - tail);
}

/// The full-depth cost at `pos` from one-layer costs at `pos` and 0 and
/// the two-layer cost at 0, field by field.
TokenCost extrapolate(const TokenCost& one_p, const TokenCost& one_0,
                      const TokenCost& two_0, std::uint32_t n_layer) {
  const auto field = [&](std::uint64_t TokenCost::*f) {
    return per_layer(one_p.*f, one_0.*f, two_0.*f, n_layer);
  };
  TokenCost x;
  x.cycles = field(&TokenCost::cycles);
  x.hbm_bytes = field(&TokenCost::hbm_bytes);
  x.net_bytes = field(&TokenCost::net_bytes);
  for (const sim::Trace* t : {&one_p.trace, &one_0.trace, &two_0.trace}) {
    for (const auto& [name, _] : t->totals()) {
      if (x.trace.totals().contains(name)) continue;
      x.trace.add_cycles(name, per_layer(one_p.trace.total(name),
                                         one_0.trace.total(name),
                                         two_0.trace.total(name), n_layer));
    }
  }
  return x;
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
                      std::uint32_t decode_tokens) const {
  const std::uint64_t requested =
      std::uint64_t{prefill_tokens} + decode_tokens;
  if (requested < 1 || requested > model_.max_seq_len) {
    throw std::invalid_argument(
        "System::run: prefill + decode must be in [1, " +
        std::to_string(model_.max_seq_len) + "] (the model context), got " +
        std::to_string(requested));
  }
  const auto total = static_cast<std::uint32_t>(requested);
  std::vector<std::uint32_t> positions(total);
  std::iota(positions.begin(), positions.end(), 0u);
  const std::vector<TokenCost> costs = token_costs(positions);

  RunResult result;
  result.prefill_tokens = prefill_tokens;
  result.decode_tokens = decode_tokens;
  for (std::uint32_t pos = 0; pos < total; ++pos) {
    const TokenCost& cost = costs[pos];
    const sim::Cycles with_host = cost.cycles + arch_.host_sync_cycles;
    result.total_cycles += with_host;
    if (pos < prefill_tokens) {
      result.prefill_cycles += with_host;
    } else {
      result.decode_cycles += with_host;
    }
    for (const auto& [name, cycles] : cost.trace.totals()) {
      result.trace.add_cycles(name, cycles);
    }
    result.hbm_bytes += cost.hbm_bytes;
    result.net_bytes += cost.net_bytes;
  }
  result.trace.add_cycles(category::kHost, total * arch_.host_sync_cycles);

  result.total_ms = arch_.cycles_to_ms(result.total_cycles);
  result.prefill_ms = arch_.cycles_to_ms(result.prefill_cycles);
  result.decode_ms = arch_.cycles_to_ms(result.decode_cycles);
  result.avg_token_ms = result.total_ms / static_cast<double>(total);
  if (decode_tokens > 0) {
    result.avg_decode_token_ms =
        result.decode_ms / static_cast<double>(decode_tokens);
    result.decode_tokens_per_s = 1e3 / result.avg_decode_token_ms;
  }
  return result;
}

std::vector<TokenCost> System::token_costs(
    const std::vector<std::uint32_t>& positions) const {
  for (std::uint32_t pos : positions) {
    if (pos >= model_.max_seq_len) {
      throw std::invalid_argument(
          "System::token_costs: position " + std::to_string(pos) +
          " is outside the model context of " +
          std::to_string(model_.max_seq_len));
    }
  }
  if (positions.empty()) return {};

  const model::ModelConfig one_layer = with_layers(model_, 1);
  const TokenCost one_0 = simulate_token(arch_, one_layer, 0);
  const TokenCost two_0 = simulate_token(arch_, with_layers(model_, 2), 0);
  std::vector<TokenCost> costs;
  costs.reserve(positions.size());
  for (std::uint32_t pos : positions) {
    costs.push_back(extrapolate(
        pos == 0 ? one_0 : simulate_token(arch_, one_layer, pos), one_0,
        two_0, model_.n_layer));
  }

  // Premise guard: the full pipeline must agree, field by field, at both
  // ends.
  const auto guard = [&](std::size_t i) {
    const TokenCost full = simulate_token(arch_, model_, positions[i]);
    const TokenCost& layered = costs[i];
    const auto check = [&](const std::string& field, std::uint64_t want,
                           std::uint64_t got) {
      if (want == got) return;
      throw std::logic_error(
          "System: " + model_.name + " on " +
          std::to_string(arch_.num_nodes) + " node(s) is not layer-periodic "
          "at position " + std::to_string(positions[i]) + ": " + field +
          " is " + std::to_string(want) + " on the full pipeline, " +
          std::to_string(got) + " by the per-layer identity");
    };
    check("cycles", full.cycles, layered.cycles);
    check("hbm_bytes", full.hbm_bytes, layered.hbm_bytes);
    check("net_bytes", full.net_bytes, layered.net_bytes);
    for (const sim::Trace* t : {&full.trace, &layered.trace}) {
      for (const auto& [name, _] : t->totals()) {
        check("trace category " + name, full.trace.total(name),
              layered.trace.total(name));
      }
    }
  };
  guard(0);
  if (positions.size() > 1) guard(positions.size() - 1);
  return costs;
}

sim::Cycles System::token_cycles(std::uint32_t pos) const {
  assert(pos < model_.max_seq_len);
  return simulate_token(arch_, model_, pos).cycles;
}

}  // namespace looplynx::core
