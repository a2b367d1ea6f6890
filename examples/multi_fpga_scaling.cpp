// Multi-FPGA scaling exploration: extends the paper's 1/2/4-node study to
// 8 nodes and to larger GPT-2 variants, quantifying where ring
// synchronization and non-distributable critical-path work cap the speed-up
// (the "future work" direction of Section III-A).
//
//   ./multi_fpga_scaling [--decode=256]
#include <iostream>
#include <vector>

#include "core/energy.hpp"
#include "core/node.hpp"
#include "core/resource_model.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto decode = cli.get_count_or("decode", 256);
  const core::PowerModel power;

  for (const model::ModelConfig& m :
       {model::gpt2_small(), model::gpt2_medium(), model::gpt2_xl()}) {
    util::Table t("Scaling " + m.name + " ([32:" + std::to_string(decode) +
                  "] request)");
    t.set_header({"nodes", "FPGAs", "token/s", "scaling eff.",
                  "exposed sync/token", "power", "token/J"});
    double base_tput = 0;
    for (std::uint32_t nodes : {1u, 2u, 4u, 8u}) {
      if (m.n_head % nodes != 0 || m.d_model % nodes != 0 ||
          m.d_ff % nodes != 0) {
        t.add_row({std::to_string(nodes), "-", "-", "partition n/a", "-", "-",
                   "-"});
        continue;
      }
      const core::ArchConfig arch = core::ArchConfig::nodes(nodes);
      core::System sys(arch, m);
      const core::RunResult r = sys.run(32, decode);
      if (nodes == 1) base_tput = r.decode_tokens_per_s;
      const double ideal = base_tput * nodes;
      const double watts = power.fpga_power_watts(arch);
      const double sync_us_per_token =
          1e3 * arch.cycles_to_ms(r.trace.total(core::category::kSync)) /
          (r.prefill_tokens + r.decode_tokens);
      t.add_row({std::to_string(nodes), std::to_string(arch.num_fpgas()),
                 util::fmt_fixed(r.decode_tokens_per_s, 1),
                 util::fmt_percent(r.decode_tokens_per_s / ideal),
                 util::fmt_fixed(sync_us_per_token, 1) + " us",
                 util::fmt_fixed(watts, 0) + " W",
                 util::fmt_fixed(
                     r.decode_tokens_per_s / watts, 2)});
    }
    t.render(std::cout);
    std::cout << "\n";
  }

  std::cout
      << "Observations: scaling efficiency decays with node count because "
         "(1) LN/residual/quant\nwork is replicated, not distributed, and "
         "(2) per-node matrix blocks shrink until the\nquantization and "
         "ring-synchronization tails poke out from behind compute — the "
         "same two\ncauses the paper names for its 1.71x/1.51x steps. "
         "Larger models scale further\n(more work per node), which is the "
         "multi-FPGA opportunity LoopLynx targets.\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
