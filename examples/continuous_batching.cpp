// Continuous-batching walkthrough: a 12-request burst arrives at a
// 2-node LoopLynx deployment whose KV budget only fits a handful of
// requests at once, so the KV manager backpressures admissions and the
// scheduler interleaves prefill and decode steps across the fleet.
//
// With --policy=chunked (plus --chunk-tokens=N) the scheduler runs on a
// per-iteration token budget: long prompts split into chunks that
// co-schedule with running decodes instead of stalling them. With
// --preempt=recompute the KV becomes paged (--kv-block-tokens blocks):
// admission books only the prompt's blocks, decode blocks grow on demand,
// and the youngest request is evicted-and-recomputed when the pool runs
// dry — the same HBM budget then carries visibly more concurrent streams.
// --prefix-cache adds content-addressed prefix caching on top (prompt
// blocks published at prefill commit, admission skips cached prefixes);
// --kv-swap adds the swap-to-host eviction tier.
// With --replicas=N the burst instead lands on a fleet of N such
// deployments routed by --balancer (rr|jsq|kv); with --autoscale the
// fleet sizes itself between --min-replicas and --max-replicas on the
// deterministic control loop (queue|slo|hybrid policies). --roles
// disaggregates the fleet into prefill/decode tiers (KV ships over the
// ring fabric priced by --kv-link-gbps), and composed with --autoscale
// each role tier runs its own control loop between its floor and its
// member count.
//
//   ./continuous_batching [--requests=12] [--batch=8] [--rate=12]
//                         [--policy=prefill|decode|chunked]
//                         [--chunk-tokens=0] [--seed=7]
//                         [--preempt=none|recompute|cost-aware]
//                         [--kv-block-tokens=1]
//                         [--prefix-cache] [--kv-swap]
//                         [--replicas=1] [--balancer=rr|jsq|kv]
//                         [--roles=R,R,...] [--kv-link-gbps=100]
//                         [--autoscale=queue|slo|hybrid]
//                         [--min-replicas=1[,1...]]
//                         [--max-replicas=4]
//                         [--scale-interval-ms=50]
//                         [--trace-out=PATH] [--metrics-out=PATH] [--help]
#include <iostream>
#include <optional>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "util/cli.hpp"
#include "workload/mix.hpp"

namespace {

void print_usage() {
  std::cout <<
      "continuous_batching: 12-request KV-backpressure walkthrough.\n"
      "\n"
      "  --requests=N         burst size (default 12)\n"
      "  --batch=N            scheduler max batch (default 8)\n"
      "  --rate=R             Poisson arrival rate per second (default 12)\n"
      "  --seed=N             traffic seed (default 7)\n"
      "  --policy=P           prefill|decode|chunked (default prefill)\n"
      "  --chunk-tokens=N     per-iteration token budget; requires\n"
      "                       --policy=chunked (chunked defaults to 64)\n"
      "  --preempt=P          none|recompute|cost-aware (default none)\n"
      "  --kv-block-tokens=N  KV paging granularity, >= 1 (default 1)\n"
      "  --prefix-cache[=B]   content-addressed prefix caching (bare = on;\n"
      "                       =off spells the byte-identical default)\n"
      "  --kv-swap            swap-to-host eviction tier; requires\n"
      "                       --prefix-cache\n"
      "  --replicas=N         fleet width, >= 1 (default 1)\n"
      "  --balancer=B         rr|jsq|kv; requires --replicas >= 2 or "
      "--autoscale\n"
      "  --roles=R,R,...      per-replica roles, prefill|decode|general;\n"
      "                       requires --replicas >= 2 or --autoscale (the\n"
      "                       role list then sizes the pool)\n"
      "  --kv-link-gbps=G     ring-fabric link bandwidth for KV migration,\n"
      "                       > 0; requires --roles (default 100)\n"
      "  --autoscale=P        queue|slo|hybrid (bare = hybrid): autoscale\n"
      "                       the fleet; conflicts with --replicas\n"
      "  --min-replicas=N[,N...]  autoscale floor, >= 1 (default 1); with\n"
      "                       --roles it floors every tier, or a comma\n"
      "                       list gives per-tier floors\n"
      "  --max-replicas=N     autoscale ceiling and pool width, >= min\n"
      "                       (default 4); conflicts with --roles (the\n"
      "                       role list is the pool)\n"
      "  --scale-interval-ms=T  control-loop period in ms, > 0 (default "
      "50)\n"
      "  --trace-out=PATH     write a Chrome/Perfetto trace-event JSON of\n"
      "                       the run (load at https://ui.perfetto.dev)\n"
      "  --metrics-out=PATH   write a Prometheus text exposition of the run\n"
      "  --help               this text\n"
      "\n"
      "Flags accept --key=value and --key value forms.\n";
}

}  // namespace

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  if (cli.has("help")) {
    print_usage();
    return 0;
  }
  const serve::SchedulerCliOptions opts = serve::parse_scheduler_cli(cli);

  serve::ServingConfig cfg;
  cfg.arch = core::ArchConfig::two_node();
  cfg.model = model::gpt2_medium();
  cfg.traffic.process = serve::ArrivalProcess::kPoisson;
  cfg.traffic.mix = workload::mixed_fleet();
  cfg.traffic.num_requests = cli.get_count_or("requests", 12);
  cfg.traffic.arrival_rate_per_s = cli.get_double_or("rate", 12.0);
  cfg.traffic.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 7));
  cfg.scheduler.max_batch = cli.get_count_or("batch", 8);
  // Shrink the KV budget so roughly 8 average requests fit at once: the
  // scheduler demonstrably interleaves 8+ concurrent streams, while the
  // stragglers beyond that back up in the queue on KV slots — the
  // pressure a production fleet must survive. A multi-replica fleet keeps
  // the same per-replica budget, so the burst spreads instead of queueing.
  const auto mean_tokens = cfg.traffic.mix.mean_tokens_per_request();
  serve::KvBlockManager probe(cfg.arch, cfg.model, 1);  // bytes-per-token probe
  cfg.kv_budget_bytes_per_node = static_cast<std::uint64_t>(
      8.5 * mean_tokens * static_cast<double>(probe.bytes_per_token_per_node()));

  // Unset export flags never construct an observer, so the default run
  // stays byte-identical to an unobserved binary.
  std::optional<serve::Observer> obs;
  if (opts.observed()) obs.emplace(opts.fleet_width(), cfg.arch.frequency_hz);

  const serve::FleetResult fr =
      serve::FleetSim(opts.fleet_config(cfg)).run(obs ? &*obs : nullptr);
  const serve::FleetMetrics& m = fr.fleet;
  const std::string mix_title =
      "Continuous batching, " + cfg.traffic.mix.name + " mix, batch " +
      std::to_string(cfg.scheduler.max_batch);
  if (opts.fleet()) {
    const std::string fleet_title =
        opts.autoscale.enabled
            ? mix_title + ", autoscale " +
                  serve::scale_policy_name(opts.autoscale.policy) + " " +
                  opts.bounds_label()
            : mix_title + ", " + std::to_string(opts.replicas) +
                  " replicas, " +
                  serve::balancer_policy_name(opts.balancer);
    fr.to_table(fleet_title).render(std::cout);
    std::cout << "\nLoad imbalance (max/mean routed) "
              << util::fmt_fixed(fr.load_imbalance, 2)
              << ", per-replica TTFT p99 spread "
              << util::fmt_fixed(fr.ttft_p99_spread_ms, 1) << " ms.\n";
    if (opts.autoscale.enabled) {
      std::cout << "Autoscaler: " << fr.scale_events.size()
                << " scale event(s), live replicas "
                << fr.min_live_replicas << ".." << fr.peak_live_replicas
                << " (mean " << util::fmt_fixed(fr.mean_live_replicas, 2)
                << "), " << util::fmt_fixed(fr.replica_seconds, 3)
                << " replica-seconds vs "
                << util::fmt_fixed(
                       static_cast<double>(opts.fleet_width()) *
                           m.duration_s,
                       3)
                << " for a static max-width fleet.\n";
    }
  } else {
    m.to_table(mix_title).render(std::cout);
  }

  if (opts.chunk_tokens > 0) {
    std::cout << "\n" << m.chunked_prompts << " prompt(s) were split into "
              << "chunks (" << m.prefill_chunk_steps
              << " chunk steps; token budget " << opts.chunk_tokens
              << "/iteration).\n";
  }
  std::cout << "\n" << m.peak_in_flight
            << " requests were in flight concurrently; KV backpressure "
               "stalled admission "
            << m.kv_stall_events << " time(s) (peak queue depth "
            << m.peak_queue_depth << ").\n";
  if (opts.preempt != serve::PreemptPolicy::kNone) {
    std::cout << "Paged KV (" << m.kv_block_tokens << " tok/block): "
              << m.preemptions << " preemption(s) recomputed "
              << m.recompute_tokens << " token(s) of dropped KV.\n";
  }
  if (opts.cached()) {
    std::cout << "Prefix cache: " << m.cache_hit_tokens << " of "
              << m.cache_lookup_tokens << " looked-up prompt token(s) hit ("
              << util::fmt_fixed(100.0 * m.cache_hit_rate, 1) << "%), "
              << util::fmt_fixed(m.saved_prefill_ms, 1)
              << " ms of prefill saved. The burst draws independent prompt\n"
              << "contents, so hits come only from preempted requests "
                 "re-admitting over\ntheir own published blocks; see "
                 "examples/chat_cache for the multi-turn\nscenario the cache "
                 "is built for.\n";
  }
  // Under the default whole-footprint reservation the demo must show
  // admission stalls; under preempt=recompute admission is deliberately
  // easier, so block-pool pressure may surface as preemptions instead. A
  // fleet spreads the burst across replicas, so per-replica pressure (and
  // the in-flight floor) scales down with the replica count.
  const bool pressured =
      m.kv_stall_events > 0 ||
      (opts.preempt != serve::PreemptPolicy::kNone && m.preemptions > 0);
  if (!pressured && !opts.fleet()) {
    std::cout << "(increase --rate or --requests to exercise backpressure)\n";
  }
  if (opts.observed()) {
    serve::write_exports(*obs, opts.trace_out, opts.metrics_out);
    if (!opts.trace_out.empty()) {
      std::cout << "Wrote trace-event JSON to " << opts.trace_out
                << " (load at https://ui.perfetto.dev)\n";
    }
    if (!opts.metrics_out.empty()) {
      std::cout << "Wrote Prometheus metrics to " << opts.metrics_out << "\n";
    }
  }
  const bool ok = m.completed == m.offered - m.rejected &&
                  (opts.fleet() ? m.completed == cfg.traffic.num_requests
                                : m.peak_in_flight >= 8 && pressured);
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
