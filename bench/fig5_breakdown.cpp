// Regenerates paper Fig. 5: single-node latency breakdown and the
// improvement ladder of the latency-optimization techniques:
//   (a) baseline breakdown (linear+MHA vs critical-path share),
//   (b) + Fused LN&Res (paper: -11%),
//   (c) + head-wise pipelining (paper: -15% vs original).
#include <iostream>

#include "bench/bench_common.hpp"
#include "core/node.hpp"
#include "core/system.hpp"
#include "util/table.hpp"

using enum looplynx::util::FlagKind;

const looplynx::util::FlagTable kFlags{
    "fig5_breakdown: paper Fig. 5, 1-node latency breakdown and ladder.",
    {looplynx::bench::model_flag(),
     {"prefill", kCount, "32", "prompt tokens"},
     {"decode", kCount, "128", "generated tokens"}}};

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto model = bench::model_from_cli(cli);
  const auto prefill = cli.count("prefill");
  const auto decode = cli.count("decode");

  struct Config {
    const char* label;
    core::ArchConfig arch;
  };
  core::ArchConfig base = core::ArchConfig::one_node().without_optimizations();
  core::ArchConfig with_lnres = base;
  with_lnres.fuse_ln_res = true;
  core::ArchConfig with_all = with_lnres;
  with_all.headwise_pipeline = true;
  with_all.hide_network_sync = true;

  const Config configs[] = {
      {"(a) original", base},
      {"(b) + Fused LN&Res", with_lnres},
      {"(c) + head-wise pipeline", with_all},
  };

  util::Table table("Fig. 5: 1-node latency breakdown on " + model.name +
                    " and optimization improvements");
  table.set_header({"Configuration", "token ms", "linear+MHA", "critical path",
                    "softmax exposed", "improvement vs (a)"});

  double base_ms = 0;
  for (const Config& cfg : configs) {
    core::System sys(cfg.arch, model);
    const core::RunResult r = sys.run(prefill, decode);
    if (base_ms == 0) base_ms = r.avg_token_ms;

    const auto& t = r.trace;
    const double linear_mha =
        static_cast<double>(t.total(core::category::kLinear) +
                            t.total(core::category::kMha));
    const double critical =
        static_cast<double>(t.total(core::category::kCriticalPath) +
                            t.total(core::category::kSoftmax) +
                            t.total(core::category::kSync) +
                            t.total(core::category::kScheduler) +
                            t.total(core::category::kHost));
    const double all = linear_mha + critical;
    table.add_row(
        {cfg.label, util::fmt_fixed(r.avg_token_ms, 2),
         util::fmt_percent(linear_mha / all),
         util::fmt_percent(critical / all),
         util::fmt_percent(
             static_cast<double>(t.total(core::category::kSoftmax)) / all),
         util::fmt_percent(1.0 - r.avg_token_ms / base_ms)});
  }
  table.render(std::cout);

  std::cout << "\nPaper reference: original split 81.5% linear+MHA / 18.5% "
               "critical path;\nFused LN&Res gives an 11% reduction and the "
               "head-wise pipeline a 15% improvement vs the original.\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
