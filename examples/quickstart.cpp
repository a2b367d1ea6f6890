// Quickstart: build a quantized GPT-2, run it through the LoopLynx timing
// simulator, and co-validate the distributed functional accelerator —
// the three public API layers of the library in ~80 lines.
//
//   ./quickstart [--nodes=2] [--prefill=32] [--decode=64]
#include <iostream>

#include "core/arch_config.hpp"
#include "core/energy.hpp"
#include "core/functional_system.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"
#include "quant/int8_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto nodes = cli.get_count_or("nodes", 2);
  const auto prefill = cli.get_count_or("prefill", 32);
  const auto decode = cli.get_count_or("decode", 64);

  // 1. Functional layer: a tiny GPT-2 with SmoothQuant W8A8 quantization.
  const model::ModelConfig tiny = model::cosim_config();
  const auto weights = model::Gpt2Weights::random(tiny, /*seed=*/42);
  const std::vector<std::uint32_t> calibration{1, 2, 3, 5, 8, 13, 21, 34};
  const auto quantized =
      quant::Gpt2Int8Weights::build_with_calibration(weights, calibration);

  // 2. Distributed functional accelerator: generates real tokens with the
  //    paper's model-parallel partition and ring synchronization.
  core::FunctionalSystem accel(quantized, std::min(nodes, tiny.n_head));
  const std::vector<std::uint32_t> prompt{7, 77, 17};
  const auto generated = accel.generate(prompt, 12);
  std::cout << "functional accelerator (" << accel.num_nodes()
            << " nodes) generated:";
  for (auto t : generated) std::cout << ' ' << t;
  std::cout << "\n  ring packs exchanged: " << accel.ring_packs()
            << ", KV bytes/node: " << accel.kv_bytes_per_node() << "\n\n";

  // 3. Timing layer: cycle-level simulation of GPT-2 345M on the same
  //    architecture at the paper's scale.
  const model::ModelConfig gpt2 = model::gpt2_medium();
  core::System sys(core::ArchConfig::nodes(nodes), gpt2);
  const core::RunResult r = sys.run(prefill, decode);

  const core::PowerModel power;
  util::Table t("LoopLynx " + std::to_string(nodes) + "-node, " + gpt2.name +
                ", [" + std::to_string(prefill) + ":" +
                std::to_string(decode) + "]");
  t.set_header({"metric", "value"});
  t.add_row({"end-to-end latency", util::fmt_fixed(r.total_ms, 1) + " ms"});
  t.add_row({"avg token latency", util::fmt_fixed(r.avg_token_ms, 2) + " ms"});
  t.add_row({"decode throughput",
             util::fmt_fixed(r.decode_tokens_per_s, 1) + " token/s"});
  t.add_row({"board power",
             util::fmt_fixed(
                 power.fpga_power_watts(core::ArchConfig::nodes(nodes)), 0) +
                 " W"});
  t.add_row({"HBM traffic", util::fmt_int(static_cast<long long>(
                                r.hbm_bytes / (1 << 20))) +
                                " MiB"});
  t.render(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
