// Fleet autoscaling walkthrough: the same bursty, whale-heavy traffic
// stream is served three ways at the same seed — a static fleet pinned at
// the floor width, a static fleet pinned at the ceiling width, and an
// autoscaled fleet that moves between the two on the deterministic
// control loop (serve::Autoscaler, DESIGN.md §6).
//
// The point this example pins (and exits nonzero if it ever stops
// holding): on bursty traffic a static fleet must choose between blowing
// the TTFT tail (floor width: every burst queues behind one deployment)
// and paying for idle capacity (ceiling width: the off-phase replicas
// burn replica-seconds doing nothing). The autoscaled fleet takes
// neither loss — it matches the ceiling fleet's SLO-good request count
// while consuming at least 20% fewer replica-cycles, and beats the floor
// fleet's p99 TTFT outright.
//
//   ./autoscale_serving [--requests=120] [--rate=0.5] [--seed=11]
//                       [--min-replicas=1] [--max-replicas=4]
//                       [--scale-interval-ms=25]
//                       [--autoscale=queue|slo|hybrid]
//                       [--trace-out=PATH] [--metrics-out=PATH] [--help]
//
// --trace-out writes a Chrome/Perfetto trace-event JSON of the autoscaled
// run (one track per replica, one async span per request, instants at
// every scale decision — load it at https://ui.perfetto.dev to watch the
// fleet breathe); --metrics-out a Prometheus text exposition of the same
// run. Deterministic: same flags, byte-identical output (seeded traffic +
// engine-ordered events + index-prefix scale decisions), exports included.
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/autoscaler.hpp"
#include "serve/fleet.hpp"
#include "serve/observe.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/mix.hpp"

namespace {

void print_usage() {
  std::cout <<
      "autoscale_serving: static floor vs static ceiling vs autoscaled\n"
      "fleet on a bursty whale-heavy mix.\n"
      "\n"
      "  --requests=N           requests in the shared stream (default "
      "120)\n"
      "  --rate=R               nominal arrival rate per second (default "
      "0.5)\n"
      "  --seed=N               traffic seed (default 11)\n"
      "  --min-replicas=N       floor width / autoscale floor (default 1)\n"
      "  --max-replicas=N       ceiling width / autoscale ceiling "
      "(default 4)\n"
      "  --scale-interval-ms=T  control-loop period in ms (default 25)\n"
      "  --autoscale=P          queue|slo|hybrid control policy (default\n"
      "                         hybrid)\n"
      "  --trace-out=PATH       write a Chrome/Perfetto trace-event JSON\n"
      "                         of the autoscaled run (load at\n"
      "                         https://ui.perfetto.dev)\n"
      "  --metrics-out=PATH     write a Prometheus text exposition of the\n"
      "                         autoscaled run\n"
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
  // Whale-heavy skew on a bursty (Markov-modulated) arrival process: the
  // on-phase packs whales into a window one replica cannot absorb, the
  // off-phase is silent — exactly the shape where a fixed width either
  // blows the tail or the budget. burst_factor x burst_fraction > 1, so
  // the off phase carries no arrivals at all (see TrafficGen).
  base.traffic.process = serve::ArrivalProcess::kBursty;
  base.traffic.mix =
      workload::Mix{"whale-heavy",
                    {{workload::make_scenario(32, 96), 0.85},
                     {workload::make_scenario(768, 128), 0.15}}};
  base.traffic.num_requests = cli.get_count_or("requests", 120);
  base.traffic.arrival_rate_per_s = cli.get_double_or("rate", 0.5);
  base.traffic.burst_factor = 6.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 16.0;
  base.traffic.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 11));
  base.scheduler.max_batch = 8;
  // Bound the per-replica run queue at the batch width so backlog is
  // visible as admission-queue depth — the signal the queue policy (and
  // hybrid's fast path) scales on. A deployment that admits everything
  // hides its overload until the latency tail reports it.
  base.scheduler.max_in_flight = 8;
  // The SLO the goodput comparison is judged on. The whale's own 768-token
  // prefill plus batch co-scheduling puts its intrinsic TTFT near 4 s, so
  // the bound must clear that; it is tight enough that a floor-width
  // fleet's burst backlog (which queues for many seconds) misses it.
  base.slo.ttft_ms = 6500.0;
  base.slo.token_ms = 400.0;

  const auto min_replicas = cli.get_count_or("min-replicas", 1);
  const auto max_replicas = cli.get_count_or("max-replicas", 4);

  serve::AutoscalerConfig autoscale;
  autoscale.enabled = true;
  // Bare --autoscale stores an empty value; it selects hybrid, matching
  // parse_scheduler_cli's behavior on the bench surfaces.
  const std::string scale_policy = cli.get_or("autoscale", "hybrid");
  autoscale.policy = scale_policy.empty()
                         ? serve::ScalePolicy::kHybrid
                         : serve::parse_scale_policy(scale_policy);
  autoscale.min_replicas = min_replicas;
  autoscale.max_replicas = max_replicas;
  autoscale.eval_interval_ms = cli.get_double_or("scale-interval-ms", 25.0);
  // React fast, release slowly: a burst must reach the ceiling within a
  // few hundred ms (queue_high = 2 queued per live replica, two
  // consecutive evals, short cooldown), while scale-down waits out six
  // quiet evals so the tail of a burst cannot flap the fleet.
  autoscale.queue_high = 2.0;
  autoscale.queue_low = 0.25;
  autoscale.up_evals = 2;
  autoscale.down_evals = 6;
  autoscale.cooldown_evals = 2;

  // One shared cost model (identical replicas everywhere).
  const core::StepCostModel costs(base.arch, base.model, 64);

  const auto run_static = [&](std::uint32_t width) {
    return serve::FleetSim(
               serve::FleetConfig::homogeneous(
                   base, width, serve::BalancerPolicy::kJoinShortestQueue),
               costs)
        .run();
  };
  const serve::FleetResult floor_fleet = run_static(min_replicas);
  const serve::FleetResult ceiling_fleet = run_static(max_replicas);

  serve::FleetConfig scaled_cfg = serve::FleetConfig::homogeneous(
      base, max_replicas, serve::BalancerPolicy::kJoinShortestQueue);
  scaled_cfg.autoscale = autoscale;
  // Exports observe the autoscaled run — the one whose scale/drain
  // decisions the instant events exist for. Unset flags never construct
  // an observer, keeping the default output byte-identical.
  const std::string trace_out = cli.get_or("trace-out", "");
  const std::string metrics_out = cli.get_or("metrics-out", "");
  if ((cli.has("trace-out") && trace_out.empty()) ||
      (cli.has("metrics-out") && metrics_out.empty())) {
    throw std::invalid_argument(
        "--trace-out/--metrics-out need a file path (--trace-out=<path>)");
  }
  std::optional<serve::Observer> obs;
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs.emplace(max_replicas, base.arch.frequency_hz);
  }
  const serve::FleetResult scaled =
      serve::FleetSim(scaled_cfg, costs).run(obs ? &*obs : nullptr);

  const auto describe = [](const std::string& name,
                           const serve::FleetResult& r) {
    std::cout << name << ": slo-good "
              << util::fmt_int(static_cast<long long>(r.fleet.slo_good))
              << "/" << util::fmt_int(static_cast<long long>(r.fleet.offered))
              << ", goodput " << util::fmt_fixed(r.fleet.goodput_req_s, 2)
              << " req/s, TTFT p99 " << util::fmt_fixed(r.fleet.ttft_ms.p99, 1)
              << " ms, replica-seconds "
              << util::fmt_fixed(r.replica_seconds, 2) << "\n";
  };

  floor_fleet
      .to_table("Static floor fleet (" + std::to_string(min_replicas) +
                " replica(s), " + base.traffic.mix.name + " bursty mix)")
      .render(std::cout);
  std::cout << "\n";
  ceiling_fleet
      .to_table("Static ceiling fleet (" + std::to_string(max_replicas) +
                " replicas)")
      .render(std::cout);
  std::cout << "\n";
  scaled
      .to_table("Autoscaled fleet (" +
                std::string(serve::scale_policy_name(autoscale.policy)) +
                ", " + std::to_string(min_replicas) + ".." +
                std::to_string(max_replicas) + " @ " +
                util::fmt_fixed(autoscale.eval_interval_ms, 0) + " ms)")
      .render(std::cout);

  std::cout << "\nScale events (" << scaled.scale_events.size() << "):\n";
  for (const serve::ScaleEvent& e : scaled.scale_events) {
    std::cout << "  t=" << util::fmt_fixed(e.at_ms, 1) << " ms  " << e.from
              << " -> " << e.to << "  (" << serve::scale_trigger_name(e.trigger)
              << ")\n";
  }
  std::cout << "Live replicas " << scaled.min_live_replicas << ".."
            << scaled.peak_live_replicas << ", time-weighted mean "
            << util::fmt_fixed(scaled.mean_live_replicas, 2) << ".\n\n";

  describe("floor   ", floor_fleet);
  describe("ceiling ", ceiling_fleet);
  describe("autoscal", scaled);

  const double cycle_saving =
      1.0 - static_cast<double>(scaled.replica_cycles) /
                static_cast<double>(ceiling_fleet.replica_cycles);
  std::cout << "\nAutoscaled fleet used "
            << util::fmt_percent(cycle_saving, 1)
            << " fewer replica-cycles than the static ceiling fleet.\n";

  if (obs) {
    serve::write_exports(*obs, trace_out, metrics_out);
    if (!trace_out.empty()) {
      std::cout << "Wrote trace-event JSON of the autoscaled run to "
                << trace_out << " (load at https://ui.perfetto.dev)\n";
    }
    if (!metrics_out.empty()) {
      std::cout << "Wrote Prometheus metrics of the autoscaled run to "
                << metrics_out << "\n";
    }
  }

  // The pinned claims. slo_good counts (not rates) compare the SLO
  // outcome over the identical request set: an autoscaled run's makespan
  // can trail a static run's by up to one control interval, which would
  // otherwise penalize its goodput *rate* for serving the same work.
  bool ok = true;
  if (scaled.fleet.slo_good < ceiling_fleet.fleet.slo_good) {
    std::cout << "FAIL: autoscaled fleet served fewer requests within SLO "
                 "than the static ceiling fleet\n";
    ok = false;
  }
  if (cycle_saving < 0.20) {
    std::cout << "FAIL: autoscaled fleet saved less than 20% of the static "
                 "ceiling fleet's replica-cycles\n";
    ok = false;
  }
  if (scaled.fleet.ttft_ms.p99 >= floor_fleet.fleet.ttft_ms.p99) {
    std::cout << "FAIL: autoscaled fleet did not beat the static floor "
                 "fleet's p99 TTFT\n";
    ok = false;
  }
  const auto conserved = [](const serve::FleetResult& r) {
    return r.fleet.completed + r.fleet.rejected == r.fleet.offered;
  };
  if (!conserved(floor_fleet) || !conserved(ceiling_fleet) ||
      !conserved(scaled)) {
    std::cout << "FAIL: request conservation violated\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
