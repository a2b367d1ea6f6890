// Per-tier autoscaling on a disaggregated fleet: the same bursty mixed
// long-prompt/chatty stream is served by a static role-split fleet (every
// prefill and decode replica lit for the whole run) and by the SAME pool
// under per-tier autoscaling — each role tier runs its own deterministic
// control loop on the shared fleet clock (prefill tiers key on the
// rolling TTFT window, decode tiers on admission-queue depth; see
// DESIGN.md §11).
//
// The point this example pins (and exits nonzero if it ever stops
// holding): a disaggregated fleet's two tiers saturate at different
// times — bursts of long prompts light up the prefill tier while the
// decode tier coasts, and the chatty steady state does the reverse. A
// static role split must provision both tiers for their own peaks and
// burns idle replica-cycles in whichever tier is off-peak. The
// tier-autoscaled fleet matches the static fleet's SLO-good request
// count while consuming at least 20% fewer replica-cycles.
//
//   ./disagg_autoscale [--requests=96] [--rate=0.5] [--seed=11]
//                      [--kv-link-gbps=100] [--scale-interval-ms=25]
//                      [--help]
//
// Deterministic: same flags, byte-identical output (seeded traffic +
// engine-ordered events + per-tier index-prefix scale decisions).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/autoscaler.hpp"
#include "serve/fleet.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/mix.hpp"

namespace {

void print_usage() {
  std::cout <<
      "disagg_autoscale: static role-split fleet vs the same pool under\n"
      "per-tier autoscaling, on a bursty long-prompt/chatty mix.\n"
      "\n"
      "  --requests=N           requests in the shared stream (default 96)\n"
      "  --rate=R               nominal arrival rate per second (default "
      "0.5)\n"
      "  --seed=N               traffic seed (default 11)\n"
      "  --kv-link-gbps=G       ring-fabric link bandwidth (default 100)\n"
      "  --scale-interval-ms=T  control-loop period in ms (default 25)\n"
      "  --help                 this text\n";
}

}  // namespace

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  if (cli.has("help")) {
    print_usage();
    return 0;
  }

  serve::ServingConfig base;
  base.arch = core::ArchConfig::two_node();
  base.model = model::gpt2_medium();
  // Bursty mixed long-prompt/chatty traffic: mostly short chat turns with
  // a real whale fraction, on a Markov-modulated arrival process whose
  // on-phase packs arrivals into windows one prefill replica cannot
  // absorb (burst_factor x burst_fraction > 1 ⇒ the off-phase is
  // silent). The whales are what stress the prefill tier; the chat
  // decodes are what keep the decode tier busy between bursts — the two
  // tiers peak at different times, which is the whole per-tier case.
  base.traffic.process = serve::ArrivalProcess::kBursty;
  base.traffic.mix =
      workload::Mix{"long-prompt-chatty",
                    {{workload::make_scenario(32, 96), 0.85},
                     {workload::make_scenario(768, 128), 0.15}}};
  base.traffic.num_requests = cli.get_count_or("requests", 96);
  base.traffic.arrival_rate_per_s = cli.get_double_or("rate", 0.5);
  base.traffic.burst_factor = 6.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 16.0;
  base.traffic.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 11));
  base.scheduler.max_batch = 8;
  // Bound the run queue so backlog is visible as admission-queue depth —
  // the signal the decode tier's controller scales on (force-pushed
  // migrations count toward the same window peaks).
  base.scheduler.max_in_flight = 8;
  base.scheduler.policy = serve::BatchPolicy::kDecodePriority;
  // The SLO the goodput comparison is judged on: clears the whale's
  // intrinsic prefill latency but not a burst backlog queued behind a
  // floor-width prefill tier.
  base.slo.ttft_ms = 6500.0;
  base.slo.token_ms = 400.0;

  const double kv_link_gbps = cli.get_double_or("kv-link-gbps", 100.0);

  // The shared pool: a prefill tier of three and a decode tier of two.
  // The static fleet lights all five for the whole run; the autoscaled
  // fleet starts each tier at its floor (one replica) and grows it only
  // while its own signal demands.
  const std::vector<serve::ReplicaRole> roles = {
      serve::ReplicaRole::kPrefill, serve::ReplicaRole::kPrefill,
      serve::ReplicaRole::kPrefill, serve::ReplicaRole::kDecode,
      serve::ReplicaRole::kDecode};
  const auto width = static_cast<std::uint32_t>(roles.size());

  serve::AutoscalerConfig autoscale;
  autoscale.enabled = true;
  autoscale.policy = serve::ScalePolicy::kHybrid;  // decode tiers force queue
  autoscale.max_replicas = width;  // each tier's ceiling is its own pool
  autoscale.eval_interval_ms = cli.get_double_or("scale-interval-ms", 25.0);
  // React fast, release slowly — same shape as the symmetric walkthrough
  // (examples/autoscale_serving): a burst must light the prefill tier
  // within a few evals, while scale-down waits out six quiet ones so the
  // tail of a burst cannot flap either tier.
  autoscale.queue_high = 2.0;
  autoscale.queue_low = 0.25;
  autoscale.up_evals = 2;
  autoscale.down_evals = 6;
  autoscale.cooldown_evals = 2;

  // One shared cost model (identical replica hardware everywhere).
  const core::StepCostModel costs(base.arch, base.model, 64);

  const auto make_cfg = [&]() {
    serve::FleetConfig cfg = serve::FleetConfig::homogeneous(
        base, width, serve::BalancerPolicy::kJoinShortestQueue);
    cfg.roles = roles;
    cfg.kv_link.bytes_per_cycle =
        kv_link_gbps * 1e9 / base.arch.frequency_hz;
    return cfg;
  };

  serve::FleetConfig static_cfg = make_cfg();
  const serve::FleetResult fixed = serve::FleetSim(static_cfg, costs).run();

  serve::FleetConfig scaled_cfg = make_cfg();
  scaled_cfg.autoscale = autoscale;
  const serve::FleetResult scaled = serve::FleetSim(scaled_cfg, costs).run();

  fixed
      .to_table("Static role split (3x prefill + 2x decode, all lit, "
                "kv-link " + util::fmt_fixed(kv_link_gbps, 0) + " GB/s)")
      .render(std::cout);
  std::cout << "\n";
  scaled
      .to_table("Tier-autoscaled (prefill 1..3 hybrid, decode 1..2 queue, "
                "@ " + util::fmt_fixed(autoscale.eval_interval_ms, 0) +
                " ms)")
      .render(std::cout);

  std::cout << "\nScale events (" << scaled.scale_events.size() << "):\n";
  for (const serve::ScaleEvent& e : scaled.scale_events) {
    std::cout << "  t=" << util::fmt_fixed(e.at_ms, 1) << " ms  "
              << serve::replica_role_name(scaled.tiers.at(e.tier).role)
              << " " << e.from << " -> " << e.to << "  ("
              << serve::scale_trigger_name(e.trigger) << ")\n";
  }
  for (const serve::FleetResult::TierStats& tier : scaled.tiers) {
    std::cout << "Tier " << serve::replica_role_name(tier.role) << ": live "
              << tier.min_live << ".." << tier.peak_live
              << ", time-weighted mean "
              << util::fmt_fixed(tier.mean_live, 2) << ", TTFT p99 spread "
              << util::fmt_fixed(tier.ttft_p99_spread_ms, 1) << " ms\n";
  }

  const auto describe = [](const std::string& name,
                           const serve::FleetResult& r) {
    std::cout << name << ": slo-good "
              << util::fmt_int(static_cast<long long>(r.fleet.slo_good))
              << "/" << util::fmt_int(static_cast<long long>(r.fleet.offered))
              << ", TTFT p99 " << util::fmt_fixed(r.fleet.ttft_ms.p99, 1)
              << " ms, migrations "
              << util::fmt_int(static_cast<long long>(r.fleet.kv_migrations))
              << ", replica-seconds "
              << util::fmt_fixed(r.replica_seconds, 2) << "\n";
  };
  std::cout << "\n";
  describe("static  ", fixed);
  describe("autoscal", scaled);

  const double cycle_saving =
      1.0 - static_cast<double>(scaled.replica_cycles) /
                static_cast<double>(fixed.replica_cycles);
  std::cout << "\nTier-autoscaled fleet used "
            << util::fmt_percent(cycle_saving, 1)
            << " fewer replica-cycles than the static role split.\n";

  // The pinned claims. slo_good counts (not rates) compare the SLO
  // outcome over the identical request set, as in autoscale_serving.
  bool ok = true;
  if (scaled.fleet.slo_good < fixed.fleet.slo_good) {
    std::cout << "FAIL: tier-autoscaled fleet served fewer requests within "
                 "SLO than the static role split\n";
    ok = false;
  }
  if (cycle_saving < 0.20) {
    std::cout << "FAIL: tier-autoscaled fleet saved less than 20% of the "
                 "static role split's replica-cycles\n";
    ok = false;
  }
  const auto conserved = [](const serve::FleetResult& r) {
    return r.fleet.completed + r.fleet.rejected == r.fleet.offered;
  };
  if (!conserved(fixed) || !conserved(scaled)) {
    std::cout << "FAIL: request conservation violated\n";
    ok = false;
  }
  if (fixed.fleet.kv_migrations == 0 || scaled.fleet.kv_migrations == 0) {
    std::cout << "FAIL: no KV migrations happened\n";
    ok = false;
  }
  // Both tiers must have actually moved — a run where a tier never grew
  // or never shrank is not exercising per-tier control.
  for (const serve::FleetResult::TierStats& tier : scaled.tiers) {
    if (tier.peak_live == tier.min_live) {
      std::cout << "FAIL: tier " << serve::replica_role_name(tier.role)
                << " never scaled\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
