// Regenerates paper Fig. 8: normalized inference latency (a) and normalized
// energy efficiency (b) of LoopLynx 1/2/4-node deployments against an
// Nvidia A100 across [prefill:decode] scenarios.
//
// Latency is normalized to the 4-node implementation (higher = slower), and
// energy efficiency (token/J) to the GPU (higher = better), exactly as in
// the paper. --csv also emits the raw series.
#include <iostream>
#include <map>
#include <vector>

#include "baseline/gpu_a100.hpp"
#include "bench/bench_common.hpp"
#include "core/energy.hpp"
#include "core/system.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using enum looplynx::util::FlagKind;

const looplynx::util::FlagTable kFlags{
    "fig8_gpu_comparison: paper Fig. 8, 1/2/4-node LoopLynx vs an A100.",
    {looplynx::bench::model_flag(),
     {"csv", kSwitch, "off", "also print the raw series as CSV"}}};

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto model = bench::model_from_cli(cli);
  const baseline::A100Model gpu(model);
  const core::PowerModel power;

  const std::vector<workload::Scenario> scenarios =
      workload::fig8_scenarios();
  const std::vector<std::uint32_t> node_counts{1, 2, 4};

  struct Cell {
    double total_ms = 0;
    double tokens_per_joule = 0;
  };
  std::map<std::uint32_t, std::vector<Cell>> fpga;  // per node count
  std::vector<Cell> gpu_cells;

  for (const workload::Scenario& sc : scenarios) {
    const double gpu_s = gpu.request_seconds(sc.prefill, sc.decode);
    const double gpu_j = power.a100_energy_joules(gpu_s);
    gpu_cells.push_back(Cell{gpu_s * 1e3, sc.total() / gpu_j});
    for (std::uint32_t nodes : node_counts) {
      const core::ArchConfig arch = core::ArchConfig::nodes(nodes);
      core::System sys(arch, model);
      const double fpga_ms = sys.run(sc.prefill, sc.decode).total_ms;
      const core::EnergyComparison cmp = compare_energy(
          power, arch, fpga_ms / 1e3, gpu_s, sc.total());
      fpga[nodes].push_back(Cell{fpga_ms, cmp.fpga_tokens_per_joule});
    }
  }

  // ---- (a) normalized latency (to 4-node; higher = slower). ----
  util::Table lat("Fig. 8(a): normalized inference latency (" + model.name +
                  "; normalized to 4-node, log-scale in the paper)");
  std::vector<std::string> header{"Impl."};
  for (const auto& sc : scenarios) header.push_back(sc.name);
  lat.set_header(header);
  for (std::uint32_t nodes : node_counts) {
    std::vector<std::string> row{std::to_string(nodes) + "-node"};
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      row.push_back(
          util::fmt_fixed(fpga[nodes][i].total_ms / fpga[4][i].total_ms, 2));
    }
    lat.add_row(row);
  }
  {
    std::vector<std::string> row{"A100"};
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      row.push_back(
          util::fmt_fixed(gpu_cells[i].total_ms / fpga[4][i].total_ms, 2));
    }
    lat.add_row(row);
  }
  lat.render(std::cout);

  // ---- (b) normalized energy efficiency (token/J vs GPU). ----
  util::Table eff("Fig. 8(b): normalized energy efficiency (token/J, "
                  "normalized to A100)");
  eff.set_header(header);
  for (std::uint32_t nodes : node_counts) {
    std::vector<std::string> row{std::to_string(nodes) + "-node"};
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      row.push_back(util::fmt_fixed(
          fpga[nodes][i].tokens_per_joule / gpu_cells[i].tokens_per_joule,
          2));
    }
    eff.add_row(row);
  }
  eff.render(std::cout);

  // ---- Headline averages over long-generation scenarios. ----
  // The paper's averages are over the long-generation ([*:512]) columns;
  // the all-scenario geomeans are printed with their own label.
  std::map<std::uint32_t, std::vector<double>> speedups, eff_ratios;
  std::map<std::uint32_t, std::vector<double>> long_speedups, long_eff_ratios;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (std::uint32_t nodes : node_counts) {
      const double sp = gpu_cells[i].total_ms / fpga[nodes][i].total_ms;
      const double eff_ratio =
          fpga[nodes][i].tokens_per_joule / gpu_cells[i].tokens_per_joule;
      speedups[nodes].push_back(sp);
      eff_ratios[nodes].push_back(eff_ratio);
      if (scenarios[i].decode >= 512) {
        long_speedups[nodes].push_back(sp);
        long_eff_ratios[nodes].push_back(eff_ratio);
      }
    }
  }
  std::cout << "\nAverages vs A100 (paper: 2-node 1.67x speed-up / 37.3% "
               "energy; 4-node 2.52x / 48.1%;\nenergy-efficiency gains "
               "2.3x/2.7x/2.1x for 1/2/4 nodes):\n";
  for (std::uint32_t nodes : node_counts) {
    std::cout << "  " << nodes << "-node: long-generation speed-up "
              << util::fmt_speedup(util::geomean(long_speedups[nodes]))
              << ", long-generation energy efficiency "
              << util::fmt_speedup(util::geomean(long_eff_ratios[nodes]))
              << "; all-scenario geomeans: speed-up "
              << util::fmt_speedup(util::geomean(speedups[nodes]))
              << ", energy efficiency "
              << util::fmt_speedup(util::geomean(eff_ratios[nodes])) << "\n";
  }

  if (cli.on("csv")) {
    std::cout << "\n";
    util::CsvWriter csv(std::cout);
    csv.write_row({"scenario", "impl", "total_ms", "tokens_per_joule"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      csv.write_row({scenarios[i].name, "a100",
                     util::fmt_fixed(gpu_cells[i].total_ms, 3),
                     util::fmt_fixed(gpu_cells[i].tokens_per_joule, 4)});
      for (std::uint32_t nodes : node_counts) {
        csv.write_row({scenarios[i].name, std::to_string(nodes) + "-node",
                       util::fmt_fixed(fpga[nodes][i].total_ms, 3),
                       util::fmt_fixed(fpga[nodes][i].tokens_per_joule, 4)});
      }
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
