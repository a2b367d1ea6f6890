// Ablation bench for the design choices DESIGN.md calls out:
//   1. optimization switches (fused LN&Res / head-wise pipeline / sync hide)
//   2. MP block granularity (sync-hiding window vs pipeline fill)
//   3. HBM channels per node (bandwidth scaling)
//   4. inter-FPGA hop latency (ring sensitivity at 4 nodes)
//   5. KV-cache channel count (MHA bound)
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "core/system.hpp"
#include "util/table.hpp"

const looplynx::util::FlagTable kFlags{
    "ablation_design: ms/token under each design-choice ablation.",
    {looplynx::bench::model_flag()}};

namespace {

using namespace looplynx;

double run_ms(const core::ArchConfig& arch, const model::ModelConfig& model) {
  return core::System(arch, model).run(32, 128).avg_token_ms;
}

}  // namespace

int run(const util::Cli& cli) {
  const auto model = bench::model_from_cli(cli);
  // ---- 1. Optimization switch lattice (2 nodes). ----
  {
    util::Table t("Ablation 1: optimization switches (2-node, ms/token)");
    t.set_header({"fused LN&Res", "head-wise pipe", "sync hiding",
                  "ms/token", "vs all-on"});
    const core::ArchConfig all_on = core::ArchConfig::two_node();
    const double best = run_ms(all_on, model);
    for (int mask = 0; mask < 8; ++mask) {
      core::ArchConfig arch = all_on;
      arch.fuse_ln_res = mask & 1;
      arch.headwise_pipeline = mask & 2;
      arch.hide_network_sync = mask & 4;
      const double ms = run_ms(arch, model);
      std::string slowdown = "+";
      slowdown += util::fmt_percent(ms / best - 1.0);
      t.add_row({arch.fuse_ln_res ? "on" : "off",
                 arch.headwise_pipeline ? "on" : "off",
                 arch.hide_network_sync ? "on" : "off",
                 util::fmt_fixed(ms, 3),
                 slowdown});
    }
    t.render(std::cout);
  }

  // ---- 2. MP block granularity (4 nodes, where tails matter most). ----
  {
    util::Table t("Ablation 2: MP block rows (4-node)");
    t.set_header({"block rows", "ms/token"});
    for (std::uint32_t rows : {32u, 64u, 128u, 256u, 512u}) {
      core::ArchConfig arch = core::ArchConfig::four_node();
      arch.mp_block_rows = rows;
      t.add_row({std::to_string(rows),
                 util::fmt_fixed(run_ms(arch, model), 3)});
    }
    t.render(std::cout);
  }

  // ---- 3. Weight HBM channels per node (1-node). ----
  {
    util::Table t("Ablation 3: HBM weight channels per node (1-node)");
    t.set_header({"channels", "ms/token"});
    for (std::uint32_t ch : {4u, 8u, 16u, 24u}) {
      core::ArchConfig arch = core::ArchConfig::one_node();
      arch.n_channel = ch;
      t.add_row({std::to_string(ch),
                 util::fmt_fixed(run_ms(arch, model), 3)});
    }
    t.render(std::cout);
  }

  // ---- 4. Inter-FPGA hop latency (4-node ring sensitivity). ----
  {
    util::Table t("Ablation 4: inter-FPGA hop latency (4-node)");
    t.set_header({"hop cycles", "ms/token"});
    for (std::uint32_t hop : {16u, 64u, 192u, 512u, 2048u}) {
      core::ArchConfig arch = core::ArchConfig::four_node();
      arch.inter_fpga_hop_cycles = hop;
      t.add_row({std::to_string(hop),
                 util::fmt_fixed(run_ms(arch, model), 3)});
    }
    t.render(std::cout);
  }

  // ---- 5. KV-cache channels (1-node, long context). ----
  {
    util::Table t("Ablation 5: KV-cache HBM channels (1-node, seq 512+)");
    t.set_header({"kv channels", "ms/token"});
    for (std::uint32_t ch : {1u, 2u, 4u, 8u}) {
      core::ArchConfig arch = core::ArchConfig::one_node();
      arch.kv_channels = ch;
      const double ms =
          core::System(arch, model).run(32, 480).avg_token_ms;
      t.add_row({std::to_string(ch), util::fmt_fixed(ms, 3)});
    }
    t.render(std::cout);
  }
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
