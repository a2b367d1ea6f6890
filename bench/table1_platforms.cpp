// Regenerates paper Table I: comparison of GPU and FPGA platforms.
#include <iostream>

#include "hw/platform.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

const looplynx::util::FlagTable kFlags{
    "table1_platforms: paper Table I, the GPU and FPGA platforms.",
    {}};

int run(const looplynx::util::Cli& /*cli*/) {
  using namespace looplynx;

  util::Table table("Table I: Comparison of GPU and FPGA platforms");
  table.set_header({"Platform", "Process", "Frequency", "Computing Units",
                    "Bandwidth", "TDP"});
  table.set_align({util::Align::kLeft, util::Align::kRight,
                   util::Align::kRight, util::Align::kLeft,
                   util::Align::kRight, util::Align::kRight});

  for (const hw::PlatformSpec& p : hw::table1_platforms()) {
    const bool fpga = p.name.find("Alveo") != std::string::npos;
    table.add_row({p.name, p.process,
                   fpga ? "200-300MHz"
                        : util::fmt_fixed(p.frequency_hz / 1e6, 0) + "MHz",
                   p.compute_units,
                   util::fmt_fixed(p.memory_bandwidth_bps / 1e9, 0) + " GB/s",
                   util::fmt_fixed(p.tdp_watts, 0) + "W"});
  }
  table.render(std::cout);

  std::cout << "\nDerived LoopLynx clocking (paper Section III-E):\n"
            << "  accelerator clock:      285 MHz\n"
            << "  per-HBM-channel peak:   "
            << util::fmt_rate(hw::LoopLynxClocking::kHbmChannelBps) << " ("
            << util::fmt_fixed(hw::LoopLynxClocking::hbm_bytes_per_cycle(), 1)
            << " B/cycle)\n"
            << "  ring link peak:         "
            << util::fmt_rate(hw::LoopLynxClocking::kNetworkBps) << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
