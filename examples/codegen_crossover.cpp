// Code-generation crossover study: sweeps the prompt/generation mix to map
// where the A100's batched prefill beats LoopLynx's token-serial pipeline
// and where the dataflow accelerator takes over (paper Fig. 8's [128:32]
// inversion, explored as a full surface).
//
//   ./codegen_crossover [--nodes=2]
#include <iostream>
#include <vector>

#include "baseline/gpu_a100.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto nodes = cli.get_count_or("nodes", 2);
  const model::ModelConfig gpt2 = model::gpt2_medium();

  const baseline::A100Model gpu(gpt2);
  core::System sys(core::ArchConfig::nodes(nodes), gpt2);

  const std::vector<std::uint32_t> prompts{16, 32, 64, 128, 256};
  const std::vector<std::uint32_t> gens{16, 32, 64, 128, 256, 512};

  util::Table t("Speed-up of LoopLynx " + std::to_string(nodes) +
                "-node over A100 (values > 1.00x: FPGA wins)");
  std::vector<std::string> header{"prompt \\ gen"};
  for (auto g : gens) header.push_back(std::to_string(g));
  t.set_header(header);

  std::uint32_t crossover_gen_at_128 = 0;
  for (std::uint32_t p : prompts) {
    std::vector<std::string> row{std::to_string(p)};
    for (std::uint32_t g : gens) {
      const double fpga_ms = sys.run(p, g).total_ms;
      const double gpu_ms = gpu.request_seconds(p, g) * 1e3;
      const double speedup = gpu_ms / fpga_ms;
      row.push_back(util::fmt_fixed(speedup, 2) + "x");
      if (p == 128 && speedup >= 1.0 && crossover_gen_at_128 == 0) {
        crossover_gen_at_128 = g;
      }
    }
    t.add_row(row);
  }
  t.render(std::cout);

  std::cout << "\nAt a 128-token prompt the FPGA overtakes the GPU once the "
               "generation length reaches ~"
            << (crossover_gen_at_128 ? std::to_string(crossover_gen_at_128)
                                     : std::string(">512"))
            << " tokens\n(paper: A100 wins [128:32]; LoopLynx wins all "
               "[*:512] settings).\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
