// Regenerates paper Table II: per-token latency and resource utilization of
// LoopLynx (1/2/4 nodes) against the temporal (DFX) and spatial baselines.
//
// Usage: table2_fpga_comparison [--prefill=64] [--decode=512]
#include <iostream>

#include "baseline/spatial_arch.hpp"
#include "baseline/temporal_dfx.hpp"
#include "bench/bench_common.hpp"
#include "core/resource_model.hpp"
#include "core/system.hpp"
#include "util/table.hpp"

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto model = bench::model_from_cli(cli);
  const auto prefill = cli.get_count_or("prefill", bench::kMixPrefill);
  const auto decode = cli.get_count_or("decode", bench::kMixDecode);

  util::Table table("Table II: Comparison of FPGA implementations (" +
                    model.name + ", [" + std::to_string(prefill) + ":" +
                    std::to_string(decode) + "] request)");
  table.set_header({"Architecture", "# Nodes", "Freq.", "Quant.",
                    "Token Latency", "DSP", "BRAM", "LUT", "FF", "URAM"});

  struct Row {
    std::string nodes_label;
    double ms;
    hw::ResourceVector res;
  };

  double two_node_ms = 0;
  double four_node_ms = 0;
  for (std::uint32_t nodes : {4u, 2u, 1u}) {
    const core::ArchConfig arch = core::ArchConfig::nodes(nodes);
    core::System sys(arch, model);
    const double ms = sys.run(prefill, decode).avg_token_ms;
    if (nodes == 2) two_node_ms = ms;
    if (nodes == 4) four_node_ms = ms;
    const core::ResourceModel rm(arch, model);
    const hw::ResourceVector res = rm.accelerator_total();
    const std::string label =
        std::to_string(nodes) + (nodes == 1 ? " Node" : " Nodes") + " (U50 x" +
        std::to_string(arch.num_fpgas()) + ")";
    table.add_row({nodes == 4 ? "LoopLynx" : "", label, "285 MHz", "W8A8",
                   util::fmt_fixed(ms, 2) + " ms", util::fmt_fixed(res.dsp, 0),
                   util::fmt_fixed(res.bram, 1), util::fmt_kilo(res.lut),
                   util::fmt_kilo(res.ff), util::fmt_fixed(res.uram, 0)});
  }
  table.add_separator();

  const baseline::TemporalModel dfx(model);
  const double dfx_ms = dfx.avg_token_ms(prefill, decode);
  table.add_row({"Temporal Arch. (DFX)", "U280", "200 MHz", "Float16",
                 util::fmt_fixed(dfx_ms, 2) + " ms", "3533", "1192", "520K",
                 "1107K", "104"});
  const baseline::SpatialModel spatial(model);
  const double spatial_ms = spatial.avg_token_ms(prefill, decode);
  table.add_row({"Spatial Arch.", "U280", "245 MHz", "W8A8",
                 util::fmt_fixed(spatial_ms, 2) + " ms", "1780", "389", "653K",
                 "569K", "111"});
  table.render(std::cout);

  std::cout << "\nHeadline speed-ups (paper: 2-node 1.39x/1.08x, 4-node "
               "2.11x/1.64x):\n"
            << "  2-node vs temporal: "
            << util::fmt_speedup(dfx_ms / two_node_ms) << "\n"
            << "  2-node vs spatial:  "
            << util::fmt_speedup(spatial_ms / two_node_ms) << "\n"
            << "  4-node vs temporal: "
            << util::fmt_speedup(dfx_ms / four_node_ms) << "\n"
            << "  4-node vs spatial:  "
            << util::fmt_speedup(spatial_ms / four_node_ms) << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
