// Functional co-simulation demo: proves the distributed accelerator's
// arithmetic. Runs the same prompt through (1) the fp32 reference, (2) the
// single-device W8A8 model, and (3) the multi-node functional accelerator,
// then reports token agreement and numeric drift.
#include <cmath>
#include <iostream>
#include <vector>

#include "core/functional_system.hpp"
#include "model/config.hpp"
#include "model/gpt2_ref.hpp"
#include "model/weights.hpp"
#include "quant/int8_model.hpp"
#include "quant/quant.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using enum looplynx::util::FlagKind;

const looplynx::util::FlagTable kFlags{
    "functional_cosim: fp32 vs W8A8 vs the distributed accelerator.",
    {{"nodes", kCount, "4", "accelerator nodes"},
     {"tokens", kCount, "24", "tokens to generate"},
     {"seed", kInteger, "7", "weight and calibration seed"}}};

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto nodes = cli.count("nodes");
  const auto n_tokens = cli.count("tokens");
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

  const model::ModelConfig cfg = model::cosim_config();
  std::cout << "model: " << cfg.n_layer << " layers, d_model " << cfg.d_model
            << ", " << cfg.n_head << " heads, vocab " << cfg.vocab_size
            << "; " << nodes << " accelerator nodes\n\n";

  const auto weights = model::Gpt2Weights::random(cfg, seed);
  util::Rng rng(seed + 1);
  std::vector<std::uint32_t> calibration(32);
  for (auto& t : calibration) {
    t = static_cast<std::uint32_t>(rng.next_below(cfg.vocab_size));
  }
  const auto quantized =
      quant::Gpt2Int8Weights::build_with_calibration(weights, calibration);

  model::Gpt2Reference fp32(weights);
  quant::Gpt2Int8 int8(quantized);
  core::FunctionalSystem dist(quantized, nodes);

  const std::vector<std::uint32_t> prompt{11, 22, 33, 44};
  std::vector<float> h_fp32, h_int8, h_dist;
  for (std::uint32_t t : prompt) {
    h_fp32 = fp32.forward_token(t);
    h_int8 = int8.forward_token(t);
    h_dist = dist.forward_token(t);
  }

  std::uint32_t greedy_agree = 0;
  std::uint32_t bitexact_steps = 0;
  double worst_rel_l2 = 0;
  for (std::uint32_t i = 0; i < n_tokens; ++i) {
    const std::uint32_t next_int8 = int8.argmax_token(h_int8);
    const std::uint32_t next_dist = dist.argmax_token(h_dist);
    const std::uint32_t next_fp32 = fp32.argmax_token(h_fp32);
    greedy_agree += (next_int8 == next_fp32);
    bool bitexact = h_int8.size() == h_dist.size();
    for (std::size_t j = 0; bitexact && j < h_int8.size(); ++j) {
      bitexact = (h_int8[j] == h_dist[j]);
    }
    bitexact_steps += bitexact;
    worst_rel_l2 =
        std::max(worst_rel_l2, quant::compare(h_fp32, h_int8).rel_l2);
    if (next_dist != next_int8) {
      std::cout << "!! distributed/single-device divergence at step " << i
                << "\n";
    }
    h_fp32 = fp32.forward_token(next_fp32);
    h_int8 = int8.forward_token(next_int8);
    h_dist = dist.forward_token(next_dist);
  }

  util::Table t("Co-simulation results over " + std::to_string(n_tokens) +
                " generated tokens");
  t.set_header({"check", "result"});
  t.add_row({"distributed == single-device (bitwise)",
             std::to_string(bitexact_steps) + "/" + std::to_string(n_tokens) +
                 " steps"});
  t.add_row({"W8A8 greedy tokens == fp32 greedy tokens",
             std::to_string(greedy_agree) + "/" + std::to_string(n_tokens)});
  t.add_row({"worst-case hidden-state rel. L2 (int8 vs fp32)",
             util::fmt_fixed(worst_rel_l2, 4)});
  t.add_row({"ring packs exchanged",
             util::fmt_int(static_cast<long long>(dist.ring_packs()))});
  t.render(std::cout);

  if (bitexact_steps != n_tokens) {
    std::cout << "\nFAILED: the distributed accelerator must be bit-exact.\n";
    return 1;
  }
  std::cout << "\nThe " << nodes
            << "-node accelerator is arithmetically indistinguishable from "
               "the single-device model;\nquantization error vs fp32 stays "
               "bounded (SmoothQuant W8A8).\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
