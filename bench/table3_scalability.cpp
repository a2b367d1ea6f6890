// Regenerates paper Table III: decode throughput and step speed-ups for
// 1/2/4-node LoopLynx, plus the interconnect-overhead analysis behind the
// sub-linear scaling discussion.
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/node.hpp"
#include "core/system.hpp"
#include "util/table.hpp"

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto model = bench::model_from_cli(cli);

  util::Table table("Table III: Throughput and scalability (" + model.name +
                    ")");
  table.set_header(
      {"# Nodes", "Tokens Per Second", "Speed-up", "Exposed sync/token"});

  std::vector<double> tput;
  std::vector<std::uint32_t> node_counts{1, 2, 4};
  if (cli.has("extended")) node_counts = {1, 2, 4, 8};
  for (std::uint32_t nodes : node_counts) {
    core::System sys(core::ArchConfig::nodes(nodes), model);
    const core::RunResult r = sys.run(bench::kMixPrefill, bench::kMixDecode);
    tput.push_back(r.decode_tokens_per_s);
    const double sync_us_per_token =
        1e3 * sys.arch().cycles_to_ms(r.trace.total(core::category::kSync)) /
        (r.prefill_tokens + r.decode_tokens);
    table.add_row(
        {std::to_string(nodes) + "-node",
         util::fmt_fixed(r.decode_tokens_per_s, 1) + " token/s",
         tput.size() > 1
             ? util::fmt_speedup(tput.back() / tput[tput.size() - 2])
             : "-",
         util::fmt_fixed(sync_us_per_token, 1) + " us"});
  }
  table.render(std::cout);

  std::cout
      << "\nPaper reference: 151.7 / 259.7 / 392.2 token/s; step speed-ups "
         "1.71x and 1.51x.\n"
         "Sub-linear scaling causes (paper Sec. F): critical-path operators "
         "are not distributed;\nper-node block counts shrink until "
         "quantization + ring synchronization tails are exposed.\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
