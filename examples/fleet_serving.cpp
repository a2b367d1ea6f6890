// Multi-deployment fleet walkthrough: the same skewed traffic stream is
// served by N identical 2-node deployments under each balancer policy, at
// the same seed, so the only variable is routing. The mix is deliberately
// whale-heavy — mostly short chat requests with a fat tail of long
// prompt + long generation requests — the shape on which blind
// round-robin piles consecutive whales onto one replica while its
// neighbors idle, and join-shortest-queue / KV-aware routing reclaim the
// difference in p99 TTFT.
//
// Deterministic: same flags, byte-identical output. Exits nonzero if
// join-shortest-queue fails to beat round-robin on p99 TTFT at no worse
// goodput — the fleet layer's reason to exist.
#include <iostream>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/fleet.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/mix.hpp"

using enum looplynx::util::FlagKind;

const looplynx::util::FlagTable kFlags{
    "fleet_serving: replica-sharding + load-balancer walkthrough.",
    {{"replicas", kCount, "3", "fleet width"},
     {"requests", kCount, "96", "requests in the shared stream"},
     {"rate", kNumber, "10", "Poisson arrival rate per second"},
     {"seed", kInteger, "3", "traffic seed"}}};

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const auto replicas = cli.count("replicas");

  serve::ServingConfig base;
  base.arch = core::ArchConfig::two_node();
  base.model = model::gpt2_medium();
  // Whale-heavy skew: the occasional [768:128] request occupies a replica
  // for an order of magnitude longer than the [32:96] bread and butter.
  base.traffic.mix =
      workload::Mix{"whale-heavy",
                    {{workload::make_scenario(32, 96), 0.85},
                     {workload::make_scenario(768, 128), 0.15}}};
  base.traffic.num_requests = cli.count("requests");
  base.traffic.arrival_rate_per_s = cli.number("rate");
  base.traffic.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  base.scheduler.max_batch = 8;

  // One shared cost model across all three fleets (identical replicas).
  const core::StepCostModel costs(base.arch, base.model, 64);

  struct Outcome {
    serve::BalancerPolicy policy;
    serve::FleetResult result;
  };
  std::vector<Outcome> outcomes;
  for (const serve::BalancerPolicy policy :
       {serve::BalancerPolicy::kRoundRobin,
        serve::BalancerPolicy::kJoinShortestQueue,
        serve::BalancerPolicy::kKvAware}) {
    const serve::FleetConfig cfg =
        serve::FleetConfig::homogeneous(base, replicas, policy);
    serve::FleetResult r = serve::FleetSim(cfg, costs).run();
    r.to_table(std::string("Fleet of ") + std::to_string(replicas) +
               ", balancer " + serve::balancer_policy_name(policy) + ", " +
               base.traffic.mix.name + " mix")
        .render(std::cout);
    std::cout << "load imbalance " << util::fmt_fixed(r.load_imbalance, 2)
              << ", TTFT p99 spread "
              << util::fmt_fixed(r.ttft_p99_spread_ms, 1) << " ms\n\n";
    outcomes.push_back({policy, std::move(r)});
  }

  const serve::FleetMetrics& rr = outcomes[0].result.fleet;
  const serve::FleetMetrics& jsq = outcomes[1].result.fleet;
  std::cout << "round-robin vs join-shortest-queue: TTFT p99 "
            << util::fmt_fixed(rr.ttft_ms.p99, 1) << " -> "
            << util::fmt_fixed(jsq.ttft_ms.p99, 1) << " ms, goodput "
            << util::fmt_fixed(rr.goodput_req_s, 2) << " -> "
            << util::fmt_fixed(jsq.goodput_req_s, 2) << " req/s\n";

  const bool all_served = [&] {
    for (const Outcome& o : outcomes) {
      if (o.result.fleet.completed + o.result.fleet.rejected !=
          o.result.fleet.offered) {
        return false;
      }
    }
    return true;
  }();
  const bool jsq_wins = jsq.ttft_ms.p99 < rr.ttft_ms.p99 &&
                        jsq.goodput_req_s >= rr.goodput_req_s;
  if (!jsq_wins) {
    std::cout << "FAIL: join-shortest-queue did not beat round-robin\n";
  }
  return all_served && jsq_wins ? 0 : 1;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
