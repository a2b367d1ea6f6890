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

using enum looplynx::util::FlagKind;

const looplynx::util::FlagTable kFlags{
    "continuous_batching: 12-request KV-backpressure walkthrough.",
    looplynx::serve::scheduler_flags(
        {{"requests", kCount, "12", "burst size"},
         {"batch", kCount, "8", "scheduler max batch"},
         {"rate", kNumber, "12", "Poisson arrival rate per second"},
         {"seed", kInteger, "7", "traffic seed"}})};

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  const serve::SchedulerCliOptions opts = serve::parse_scheduler_cli(cli);

  serve::ServingConfig cfg;
  cfg.arch = core::ArchConfig::two_node();
  cfg.model = model::gpt2_medium();
  cfg.traffic.process = serve::ArrivalProcess::kPoisson;
  cfg.traffic.mix = workload::mixed_fleet();
  cfg.traffic.num_requests = cli.count("requests");
  cfg.traffic.arrival_rate_per_s = cli.number("rate");
  cfg.traffic.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  cfg.scheduler.max_batch = cli.count("batch");
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
  if (opts.prefix_cache) {
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
  return looplynx::util::run_main(argc, argv, kFlags, run);
}
