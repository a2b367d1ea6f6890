// Regenerates paper Fig. 7: per-kernel resource utilization of the
// dual-node LoopLynx accelerator on a Xilinx Alveo U50, plus SLR fit checks.
#include <iostream>

#include "bench/bench_common.hpp"
#include "core/resource_model.hpp"
#include "hw/resources.hpp"
#include "util/table.hpp"

const looplynx::util::FlagTable kFlags{
    "fig7_resources: paper Fig. 7, dual-node resource use on a U50.",
    {looplynx::bench::model_flag()}};

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto model = bench::model_from_cli(cli);
  const core::ArchConfig arch = core::ArchConfig::two_node();
  const core::ResourceModel rm(arch, model);

  util::Table table(
      "Fig. 7: resource utilization on Xilinx Alveo U50 (dual-node)");
  table.set_header({"Component", "DSP", "LUT", "FF", "BRAM"});
  for (const hw::ComponentUsage& row : rm.fig7_rows()) {
    table.add_row({row.name, util::fmt_fixed(row.usage.dsp, 0),
                   util::fmt_kilo(row.usage.lut),
                   util::fmt_kilo(row.usage.ff),
                   util::fmt_fixed(row.usage.bram, 0)});
  }
  table.add_separator();
  const hw::ResourceVector accel = rm.accelerator_total();
  table.add_row({"Accelerator Total", util::fmt_fixed(accel.dsp, 0),
                 util::fmt_kilo(accel.lut), util::fmt_kilo(accel.ff),
                 util::fmt_fixed(accel.bram, 1)});
  const hw::ResourceVector device = rm.device_total();
  table.add_row({"Device Total", util::fmt_fixed(device.dsp, 0),
                 util::fmt_kilo(device.lut), util::fmt_kilo(device.ff),
                 util::fmt_fixed(device.bram, 1)});
  table.render(std::cout);

  const hw::ResourceVector slr = hw::alveo_u50_slr_budget();
  const hw::ResourceVector node = rm.per_node();
  std::cout << "\nPlacement check (paper: one node fits one SLR):\n"
            << "  per-node worst-resource utilization of an SLR: "
            << util::fmt_percent(node.max_utilization(slr)) << "\n"
            << "  device total fits U50: "
            << (rm.fits_u50() ? "yes" : "NO") << "\n"
            << "\nPaper reference (device total): 1132 DSP / 312K LUT / "
               "478K FF / 924.5 BRAM.\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
