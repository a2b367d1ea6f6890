// Disaggregated prefill/decode walkthrough: the same mixed
// long-prompt/chatty stream is served by every symmetric fleet policy and
// by a role-split fleet of the SAME total node count, at the same seed, so
// the only variable is the topology. On a symmetric replica a 768-token
// whale prompt and the chat decodes it lands among fight for one pipeline:
// every new prompt queues behind running decode iterations, and the TTFT
// tail absorbs the wait. The disaggregated fleet routes fresh arrivals to
// prefill-role replicas only — their batches never carry steady-state
// decodes — and ships each finished prompt's KV blocks to the least-loaded
// decode replica over the ring fabric, so prompt latency and decode
// throughput stop sharing a queue.
//
//   ./disagg_serving [--replicas=4] [--requests=96] [--rate=10] [--seed=3]
//                    [--kv-link-gbps=100] [--help]
//
// Deterministic: same flags, byte-identical output. Exits nonzero if the
// disaggregated fleet fails to beat the best symmetric fleet on p99 TTFT
// at equal total nodes, or regresses SLO-good completions — the
// disaggregation pin.
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/fleet.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/mix.hpp"

namespace {

void print_usage() {
  std::cout <<
      "disagg_serving: prefill/decode disaggregation walkthrough.\n"
      "\n"
      "  --replicas=N       total nodes in every fleet (default 4, min 2)\n"
      "  --requests=N       requests in the shared stream (default 96)\n"
      "  --rate=R           Poisson arrival rate per second (default 10)\n"
      "  --seed=N           traffic seed (default 3)\n"
      "  --kv-link-gbps=G   ring-fabric link bandwidth (default 100)\n"
      "  --help             this text\n";
}

}  // namespace

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  if (cli.has("help")) {
    print_usage();
    return 0;
  }
  const auto replicas = cli.get_count_or("replicas", 4);
  if (replicas < 2) {
    throw std::invalid_argument(
        "--replicas must be >= 2 (the role split needs a prefill and a "
        "decode replica)");
  }
  const double kv_link_gbps = cli.get_double_or("kv-link-gbps", 100.0);

  serve::ServingConfig base;
  base.arch = core::ArchConfig::two_node();
  base.model = model::gpt2_medium();
  // Mixed long-prompt/chatty: almost all short chat turns, plus rare
  // [768:128] document-grounded whales whose prompts are 24x longer than
  // the bread and butter. Rare is the point: whale TTFT sets the p99, and
  // with few whales the prefill tier's queue stays short — the tail then
  // measures pure decode interference, not whale-on-whale pileups.
  base.traffic.mix =
      workload::Mix{"long-prompt-chatty",
                    {{workload::make_scenario(32, 96), 0.95},
                     {workload::make_scenario(768, 128), 0.05}}};
  base.traffic.num_requests = cli.get_count_or("requests", 96);
  base.traffic.arrival_rate_per_s = cli.get_double_or("rate", 10.0);
  base.traffic.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 3));
  base.scheduler.max_batch = 4;
  // Decode-priority batching: running decode streams keep their batch
  // slots until they finish, protecting inter-token latency — the policy a
  // chatty production fleet runs. Its cost is that waiting prompts stall
  // behind long decodes, and THAT is the cost disaggregation removes: a
  // prefill-role replica never holds steady-state decodes, so the policy
  // has nothing to prioritize over fresh prompts.
  base.scheduler.policy = serve::BatchPolicy::kDecodePriority;

  // One shared cost model across every fleet (identical replica hardware).
  const core::StepCostModel costs(base.arch, base.model, 64);

  // ---- Symmetric baselines: every balancer policy at N general nodes ----
  struct Outcome {
    std::string label;
    serve::FleetResult result;
  };
  std::vector<Outcome> symmetric;
  for (const serve::BalancerPolicy policy :
       {serve::BalancerPolicy::kRoundRobin,
        serve::BalancerPolicy::kJoinShortestQueue,
        serve::BalancerPolicy::kKvAware}) {
    const serve::FleetConfig cfg =
        serve::FleetConfig::homogeneous(base, replicas, policy);
    serve::FleetResult r = serve::FleetSim(cfg, costs).run();
    r.to_table(std::string("Symmetric ") + std::to_string(replicas) +
               "x general, balancer " + serve::balancer_policy_name(policy))
        .render(std::cout);
    std::cout << "load imbalance " << util::fmt_fixed(r.load_imbalance, 2)
              << ", TTFT p99 spread "
              << util::fmt_fixed(r.ttft_p99_spread_ms, 1) << " ms\n\n";
    symmetric.push_back(
        {serve::balancer_policy_name(policy), std::move(r)});
  }

  // ---- Disaggregated fleet at the same total node count ----
  // One decode sink; every other node takes fresh arrivals. The balancer
  // is join-shortest-queue over the non-decode replicas.
  serve::FleetConfig disagg_cfg = serve::FleetConfig::homogeneous(
      base, replicas, serve::BalancerPolicy::kJoinShortestQueue);
  disagg_cfg.roles.assign(replicas, serve::ReplicaRole::kPrefill);
  // Half the pool (rounded down, min one) becomes the decode tier.
  const std::uint32_t decode_nodes = replicas / 2 == 0 ? 1 : replicas / 2;
  for (std::uint32_t i = replicas - decode_nodes; i < replicas; ++i) {
    disagg_cfg.roles[i] = serve::ReplicaRole::kDecode;
  }
  disagg_cfg.kv_link.bytes_per_cycle =
      kv_link_gbps * 1e9 / base.arch.frequency_hz;
  serve::FleetResult disagg = serve::FleetSim(disagg_cfg, costs).run();
  {
    std::string roles;
    for (std::size_t i = 0; i < disagg_cfg.roles.size(); ++i) {
      roles += i == 0 ? "" : "/";
      roles += serve::replica_role_name(disagg_cfg.roles[i]);
    }
    disagg.to_table("Disaggregated " + roles + ", kv-link " +
                    util::fmt_fixed(kv_link_gbps, 0) + " GB/s")
        .render(std::cout);
    std::cout << "migrations " << disagg.fleet.kv_migrations << " ("
              << disagg.fleet.kv_migrated_blocks << " blocks, "
              << util::fmt_fixed(
                     static_cast<double>(disagg.fleet.kv_migrate_wire_bytes) /
                         (1024.0 * 1024.0), 1)
              << " MiB on the wire), work steals "
              << disagg.fleet.work_steals << "\n\n";
  }

  // ---- The pin: beat the BEST symmetric fleet, not a strawman ----
  const Outcome* best = &symmetric.front();
  for (const Outcome& o : symmetric) {
    if (o.result.fleet.ttft_ms.p99 < best->result.fleet.ttft_ms.p99) {
      best = &o;
    }
  }
  const serve::FleetMetrics& sym = best->result.fleet;
  const serve::FleetMetrics& dis = disagg.fleet;
  std::cout << "best symmetric (" << best->label << ") vs disaggregated: "
            << "TTFT p99 " << util::fmt_fixed(sym.ttft_ms.p99, 1) << " -> "
            << util::fmt_fixed(dis.ttft_ms.p99, 1) << " ms, SLO-good "
            << sym.slo_good << " -> " << dis.slo_good << " of "
            << dis.offered << "\n";

  const bool all_served =
      dis.completed + dis.rejected == dis.offered &&
      sym.completed + sym.rejected == sym.offered;
  const bool migrated = dis.kv_migrations > 0;
  const bool ttft_wins = dis.ttft_ms.p99 < sym.ttft_ms.p99;
  const bool no_slo_regression = dis.slo_good >= sym.slo_good;
  if (!migrated) std::cout << "FAIL: no KV migrations happened\n";
  if (!ttft_wins) {
    std::cout << "FAIL: disaggregation did not beat the best symmetric "
                 "fleet on p99 TTFT\n";
  }
  if (!no_slo_regression) {
    std::cout << "FAIL: disaggregation regressed SLO-good completions\n";
  }
  return all_served && migrated && ttft_wins && no_slo_regression ? 0 : 1;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
