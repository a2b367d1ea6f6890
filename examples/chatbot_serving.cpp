// Chatbot serving study: the paper's motivating workload (short prompt,
// long auto-regressive generation). Compares LoopLynx deployments against
// the A100 on latency, throughput, energy per reply, and time-to-last-token
// for interactive sessions of several reply lengths.
#include <iostream>
#include <vector>

#include "baseline/gpu_a100.hpp"
#include "core/energy.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

const looplynx::util::FlagTable kFlags{
    "chatbot_serving: LoopLynx vs the A100 on chat replies of four lengths.",
    {}};

int run(const looplynx::util::Cli& /*cli*/) {
  using namespace looplynx;
  const model::ModelConfig gpt2 = model::gpt2_medium();

  const baseline::A100Model gpu(gpt2);
  const core::PowerModel power;

  const std::vector<std::uint32_t> reply_lengths{64, 128, 256, 512};
  const std::uint32_t prompt_len = workload::chatbot().prefill;

  util::Table t("Chatbot serving: " + gpt2.name + ", prompt " +
                std::to_string(prompt_len) + " tokens");
  t.set_header({"reply len", "impl", "reply latency", "token/s", "J/reply",
                "vs A100 latency", "vs A100 energy"});

  for (std::uint32_t reply : reply_lengths) {
    const double gpu_s = gpu.request_seconds(prompt_len, reply);
    const double gpu_j = power.a100_energy_joules(gpu_s);
    t.add_row({std::to_string(reply), "A100",
               util::fmt_fixed(gpu_s * 1e3, 0) + " ms",
               util::fmt_fixed(reply / gpu_s, 1), util::fmt_fixed(gpu_j, 1),
               "1.00x", "1.00x"});
    for (std::uint32_t nodes : {1u, 2u, 4u}) {
      const core::ArchConfig arch = core::ArchConfig::nodes(nodes);
      core::System sys(arch, gpt2);
      const core::RunResult r = sys.run(prompt_len, reply);
      const double fpga_s = r.total_ms / 1e3;
      const core::EnergyComparison cmp =
          compare_energy(power, arch, fpga_s, gpu_s, prompt_len + reply);
      t.add_row({"", std::to_string(nodes) + "-node",
                 util::fmt_fixed(r.total_ms, 0) + " ms",
                 util::fmt_fixed(reply / fpga_s, 1),
                 util::fmt_fixed(cmp.fpga_joules, 1),
                 util::fmt_speedup(gpu_s / fpga_s),
                 util::fmt_percent(cmp.energy_fraction) + " of GPU"});
    }
    t.add_separator();
  }
  t.render(std::cout);

  std::cout << "\nReading guide: LoopLynx wins on every long reply (the "
               "decode phase is token-serial,\nwhere the GPU is "
               "launch-bound), and the 2-node card does it inside a 75 W "
               "budget.\nPaper headline at [32:512]: 2-node 1.67x faster at "
               "37.3% of the A100's energy.\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
