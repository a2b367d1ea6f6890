// Latency under load: sweeps arrival rate x max batch size for several
// traffic mixes on the continuous-batching serving engine, reporting
// throughput, goodput and tail latency. This is the scenario family the
// paper's Fig. 8 single-request sweep cannot express: an open arrival
// process, interleaved prefill/decode, KV backpressure — and, with the
// paged-KV flags, block-granular allocation with scheduler-driven
// preemption instead of whole-footprint reservation. With --replicas >= 2
// every sweep point becomes a multi-deployment fleet: N copies of the
// deployment behind a --balancer, fed by the same arrival stream.
//
//   ./serve_load [--nodes=2] [--model=gpt2-medium] [--requests=64]
//                [--seed=1] [--stride=64]
//                [--policy=prefill|decode|chunked] [--chunk-tokens=0]
//                [--preempt=none|recompute|cost-aware] [--kv-block-tokens=1]
//                [--kv-budget-mb=0] [--prefix-cache] [--kv-swap]
//                [--replicas=1] [--balancer=rr|jsq|kv]
//                [--roles=prefill,decode,...] [--kv-link-gbps=100]
//                [--autoscale=queue|slo|hybrid] [--min-replicas=N[,N...]]
//                [--max-replicas=N] [--scale-interval-ms=50]
//                [--trace-out=PATH] [--metrics-out=PATH]
//
// --chunk-tokens=N sets the per-iteration token budget (requires
// --policy=chunked; the policy defaults it to 64). --preempt=recompute
// admits on prompt blocks only and preempts the youngest request when
// decode growth drains the pool; --kv-block-tokens sets the paging
// granularity (1 = token-granular legacy accounting); --kv-budget-mb
// overrides the per-node KV HBM budget (0 = architecture default) so a
// sweep can actually exercise block pressure. --replicas=N shards each
// sweep point across N identical replicas routed by --balancer
// (round-robin, join-shortest-queue, or KV-aware; requires --replicas>=2).
// --prefix-cache turns on content-addressed prefix caching: full prompt
// blocks are published into a hash-chained shared cache at prefill commit
// and later requests with an identical prompt prefix skip the cached
// tokens at admission (the table grows hit-rate / saved-prefill columns);
// --kv-swap adds the swap-to-host eviction tier on top. --autoscale=P
// replaces the fixed width with a deterministic control
// loop that grows/shrinks the live replica set between --min-replicas and
// --max-replicas every --scale-interval-ms (policies: queue depth, SLO
// p99 TTFT, or hybrid); the table then adds mean-live / replica-seconds /
// scale-event columns — the cost side of the elasticity tradeoff.
// When the paging/fleet/autoscale flags are at their defaults the table
// is byte-identical to the pre-paging/pre-fleet output; otherwise it
// grows peak-in-flight / preemption and imbalance / TTFT-spread columns.
//
// Output is deterministic: two runs with identical flags produce
// byte-identical tables (seeded traffic + deterministic engine +
// index-ordered balancer tie-breaks).
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/observe.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/mix.hpp"

namespace {

void print_usage() {
  std::cout <<
      "serve_load: latency-under-load sweep (rate x batch x mix) on the\n"
      "continuous-batching serving engine.\n"
      "\n"
      "  --nodes=N            accelerator nodes per replica (default 2)\n"
      "  --model=NAME         gpt2-small|gpt2-medium|gpt2-xl (default "
      "gpt2-medium)\n"
      "  --requests=N         requests per sweep point (default 64)\n"
      "  --seed=N             traffic seed (default 1)\n"
      "  --stride=N           step-cost probe stride (default 64)\n"
      "  --policy=P           prefill|decode|chunked (default prefill)\n"
      "  --chunk-tokens=N     per-iteration token budget; requires\n"
      "                       --policy=chunked (chunked defaults to 64)\n"
      "  --preempt=P          none|recompute|cost-aware (default none)\n"
      "  --kv-block-tokens=N  KV paging granularity, >= 1 (default 1)\n"
      "  --kv-budget-mb=N     per-node KV HBM budget override (default 0 =\n"
      "                       architecture default)\n"
      "  --prefix-cache[=B]   content-addressed prefix caching (bare = on;\n"
      "                       =off spells the byte-identical default)\n"
      "  --kv-swap            swap-to-host eviction tier; requires\n"
      "                       --prefix-cache\n"
      "  --replicas=N         fleet width, >= 1 (default 1 = single "
      "replica)\n"
      "  --balancer=B         rr|jsq|kv; requires --replicas >= 2 or "
      "--autoscale\n"
      "  --roles=R,R,...      per-replica roles (general|prefill|decode):\n"
      "                       disaggregated fleet — prefill replicas ship\n"
      "                       finished prompts' KV to decode replicas over\n"
      "                       a ring fabric; requires --replicas >= 2 with\n"
      "                       a matching role count, or --autoscale (the\n"
      "                       role list then sizes the pool and each role\n"
      "                       tier scales independently)\n"
      "  --kv-link-gbps=G     KV-migration link rate in GB/s, > 0 (default\n"
      "                       100); requires --roles\n"
      "  --autoscale=P        queue|slo|hybrid (bare = hybrid): autoscale\n"
      "                       the fleet between --min-replicas and\n"
      "                       --max-replicas; conflicts with --replicas\n"
      "  --min-replicas=N[,N...]  autoscale floor, >= 1 (default 1); with\n"
      "                       --roles it floors every tier, or a comma\n"
      "                       list names one floor per tier (distinct\n"
      "                       roles in order)\n"
      "  --max-replicas=N     autoscale ceiling and pool width, >= min\n"
      "                       (default 4); conflicts with --roles (the\n"
      "                       role list is the pool, each tier's ceiling\n"
      "                       its member count)\n"
      "  --scale-interval-ms=T  control-loop period in ms, > 0 (default "
      "50)\n"
      "  --trace-out=PATH     write a Chrome/Perfetto trace-event JSON of\n"
      "                       the final sweep point (every point is still\n"
      "                       observed, so the tiling invariant is checked\n"
      "                       across the whole grid)\n"
      "  --metrics-out=PATH   write a Prometheus text exposition of the\n"
      "                       final sweep point\n"
      "  --help               this text\n"
      "\n"
      "Flags accept --key=value and --key value forms. Defaults reproduce\n"
      "the pre-fleet, pre-paging sweep byte for byte.\n";
}

}  // namespace

int run(const looplynx::util::Cli& cli) {
  using namespace looplynx;
  if (cli.has("help")) {
    print_usage();
    return 0;
  }
  const std::uint32_t nodes = cli.get_count_or("nodes", 2);
  const std::uint32_t requests = cli.get_count_or("requests", 64);
  const auto seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 1));
  const std::uint32_t stride = cli.get_count_or("stride", 64);
  const serve::SchedulerCliOptions opts = serve::parse_scheduler_cli(cli);
  const std::uint64_t kv_budget_mb = cli.get_count_or("kv-budget-mb", 0);

  const core::ArchConfig arch = core::ArchConfig::nodes(nodes);
  const model::ModelConfig model = bench::model_from_cli(cli);

  // One cost probe shared by every sweep point (same arch + model).
  const core::StepCostModel costs(arch, model, stride);

  const std::vector<workload::Mix> mixes = {workload::chatbot_mix(),
                                            workload::codegen_mix(),
                                            workload::summarization_mix(),
                                            workload::mixed_fleet()};
  const std::vector<double> rates = {1.0, 2.0, 4.0, 8.0};
  const std::vector<std::uint32_t> batches = {1, 4, 8, 16};

  std::string title = "Serving under load: " + model.name + ", " +
                      std::to_string(nodes) + "-node, " +
                      std::to_string(requests) + " requests/point, " +
                      serve::batch_policy_name(opts.policy) +
                      ", chunk-tokens " + std::to_string(opts.chunk_tokens);
  if (opts.paged()) {
    title += ", preempt " +
             std::string(serve::preempt_policy_name(opts.preempt)) +
             ", kv-block " + std::to_string(opts.kv_block_tokens);
  }
  if (kv_budget_mb > 0) {
    title += ", kv-budget " + std::to_string(kv_budget_mb) + " MiB";
  }
  if (opts.cached()) {
    title += opts.kv_swap ? ", prefix-cache+swap" : ", prefix-cache";
  }
  if (opts.fleet()) {
    if (opts.autoscale.enabled) {
      title += ", autoscale " +
               std::string(serve::scale_policy_name(opts.autoscale.policy)) +
               " " + opts.bounds_label() + " @" +
               util::fmt_fixed(opts.autoscale.eval_interval_ms, 0) + "ms, " +
               serve::balancer_policy_name(opts.balancer);
    } else {
      title += ", " + std::to_string(opts.replicas) + " replicas, " +
               serve::balancer_policy_name(opts.balancer);
    }
  }
  if (opts.disaggregated()) {
    title += ", roles ";
    for (std::size_t i = 0; i < opts.roles.size(); ++i) {
      if (i > 0) title += "/";
      title += serve::replica_role_name(opts.roles[i]);
    }
    title += ", kv-link " + util::fmt_fixed(opts.kv_link_gbps, 0) + " GB/s";
  }
  util::Table t(title);
  std::vector<std::string> header = {
      "mix", "req/s in", "batch", "done/shed", "tok/s",
      "goodput", "TTFT p50", "TTFT p99", "tok p50", "tok p99",
      "gap p99", "chunks", "stall ms"};
  if (opts.paged()) {
    header.push_back("in-flt");
    header.push_back("preempt");
  }
  if (opts.cached()) {
    header.push_back("hit%");
    header.push_back("saved ms");
  }
  if (opts.fleet()) {
    header.push_back("imbal");
    header.push_back("TTFT sprd");
    // The pooled queue-wait / inter-token-gap distributions are where a
    // skewed routing shows up first; fleet-gated so default (and plain
    // paged) tables stay byte-identical to earlier releases.
    header.push_back("q-wait p50");
    header.push_back("q-wait p99");
    header.push_back("gap p50");
  }
  if (opts.disaggregated()) {
    header.push_back("migr");
    header.push_back("mig MB");
    header.push_back("steal");
  }
  if (opts.autoscale.enabled) {
    header.push_back("live avg");
    header.push_back("repl-s");
    header.push_back("scale");
  }
  t.set_header(header);

  // With exports requested, every sweep point runs observed (each
  // finalize() re-asserts the tiling identity across the whole grid); the
  // files capture the final point. Unset flags never construct an
  // observer, keeping the default sweep byte-identical.
  std::optional<serve::Observer> obs;

  for (const workload::Mix& mix : mixes) {
    for (double rate : rates) {
      for (std::uint32_t batch : batches) {
        serve::ServingConfig cfg;
        cfg.arch = arch;
        cfg.model = model;
        cfg.traffic.mix = mix;
        cfg.traffic.num_requests = requests;
        cfg.traffic.arrival_rate_per_s = rate;
        cfg.traffic.seed = seed;
        cfg.scheduler.max_batch = batch;
        cfg.kv_budget_bytes_per_node = kv_budget_mb << 20;
        if (opts.observed()) {
          obs.emplace(opts.fleet_width(), arch.frequency_hz);
        }
        const serve::FleetResult fr =
            serve::FleetSim(opts.fleet_config(cfg), costs)
                .run(obs ? &*obs : nullptr);
        const serve::FleetMetrics& m = fr.fleet;
        std::vector<std::string> row = {
            mix.name, util::fmt_fixed(rate, 0),
            util::fmt_int(batch),
            util::fmt_int(static_cast<long long>(m.completed)) + "/" +
                util::fmt_int(static_cast<long long>(m.rejected)),
            util::fmt_fixed(m.decode_tok_s, 1),
            util::fmt_fixed(m.goodput_req_s, 2),
            util::fmt_fixed(m.ttft_ms.p50, 1),
            util::fmt_fixed(m.ttft_ms.p99, 1),
            util::fmt_fixed(m.token_ms.p50, 2),
            util::fmt_fixed(m.token_ms.p99, 2),
            util::fmt_fixed(m.inter_token_gap_ms.p99, 2),
            util::fmt_int(static_cast<long long>(m.prefill_chunk_steps)),
            util::fmt_fixed(m.decode_stall_ms, 1)};
        if (opts.paged()) {
          row.push_back(util::fmt_int(m.peak_in_flight));
          row.push_back(util::fmt_int(static_cast<long long>(m.preemptions)));
        }
        if (opts.cached()) {
          row.push_back(util::fmt_fixed(100.0 * m.cache_hit_rate, 1));
          row.push_back(util::fmt_fixed(m.saved_prefill_ms, 1));
        }
        if (opts.fleet()) {
          row.push_back(util::fmt_fixed(fr.load_imbalance, 2));
          row.push_back(util::fmt_fixed(fr.ttft_p99_spread_ms, 1));
          row.push_back(util::fmt_fixed(m.queue_wait_ms.p50, 1));
          row.push_back(util::fmt_fixed(m.queue_wait_ms.p99, 1));
          row.push_back(util::fmt_fixed(m.inter_token_gap_ms.p50, 2));
        }
        if (opts.disaggregated()) {
          row.push_back(
              util::fmt_int(static_cast<long long>(m.kv_migrations)));
          row.push_back(util::fmt_fixed(
              static_cast<double>(m.kv_migrate_wire_bytes) / (1 << 20), 1));
          row.push_back(
              util::fmt_int(static_cast<long long>(m.work_steals)));
        }
        if (opts.autoscale.enabled) {
          row.push_back(util::fmt_fixed(fr.mean_live_replicas, 2));
          row.push_back(util::fmt_fixed(fr.replica_seconds, 2));
          row.push_back(
              util::fmt_int(static_cast<long long>(fr.scale_events.size())));
        }
        t.add_row(row);
      }
      t.add_separator();
    }
  }
  t.render(std::cout);

  std::cout << "\nReading guide: raising max batch amortizes the per-token\n"
               "host sync across the batch, lifting tok/s at some cost in\n"
               "p99 per-token latency; past the saturation rate TTFT blows\n"
               "up first (queueing), which is why goodput — not raw\n"
               "throughput — is the capacity metric. With --policy=chunked\n"
               "a long prompt is split into --chunk-tokens budgeted chunks\n"
               "that co-schedule with running decodes, cutting gap p99 and\n"
               "stall ms (the head-of-line blocking whole prompts inflict)\n"
               "on long-prompt mixes at a small throughput cost from the\n"
               "extra per-iteration host syncs.\n";
  if (opts.paged()) {
    std::cout <<
        "With --preempt=recompute admission books only the prompt's KV\n"
        "blocks instead of the whole prefill+decode footprint, so at a\n"
        "tight --kv-budget-mb the in-flt column rises and decode batches\n"
        "fill out; the price is the preempt column — evicted requests\n"
        "re-run their sequence as chunked prefill when the pool runs dry.\n";
  }
  if (opts.cached()) {
    std::cout <<
        "With --prefix-cache full prompt blocks are published into a\n"
        "hash-chained shared cache at prefill commit; later requests whose\n"
        "prompt shares a prefix skip the cached tokens at admission. hit%\n"
        "is the fraction of looked-up prompt tokens served from cache and\n"
        "saved ms the prefill compute those tokens would have cost. The\n"
        "seeded mixes draw independent prompt contents, so hit rates stay\n"
        "low here — the multi-turn chat scenario (examples/chat_cache) is\n"
        "where shared system prompts and growing conversation prefixes\n"
        "make the cache pay for itself.\n";
  }
  if (opts.fleet()) {
    std::cout <<
        "With --replicas=N each point runs N identical deployments behind\n"
        "the balancer: imbal is max/mean arrivals per replica (1.00 =\n"
        "perfectly even) and TTFT sprd is the max-min per-replica p99 TTFT\n"
        "in ms — --balancer=jsq/kv exist to shrink both on skewed mixes\n"
        "where round-robin piles heavy requests onto one replica.\n";
  }
  if (opts.disaggregated()) {
    std::cout <<
        "With --roles the fleet is disaggregated: fresh arrivals route\n"
        "only to non-decode replicas; when a prompt's last chunk finishes\n"
        "on a prefill replica its KV block list ships to the least-loaded\n"
        "decode replica over the ring fabric (migr migrations moving\n"
        "mig MB = bytes x hops at --kv-link-gbps), so long prompts never\n"
        "queue behind running decodes. steal counts queued requests an\n"
        "idle replica pulled from a backed-up neighbor on the same links.\n";
  }
  if (opts.autoscale.enabled) {
    std::cout <<
        "With --autoscale the live replica set tracks load between\n"
        "--min-replicas and --max-replicas: live avg is the time-weighted\n"
        "mean live-replica count, repl-s the occupied replica-seconds (a\n"
        "static fleet burns width x makespan; the gap is the elasticity\n"
        "saving) and scale the number of grow/shrink events. Scale-down\n"
        "drains gracefully — masked replicas finish their admitted work.\n";
    if (opts.disaggregated()) {
      std::cout <<
          "With --roles each role tier runs its own control loop on the\n"
          "shared fleet clock: prefill tiers key on the rolling TTFT\n"
          "window (first tokens form on the prefill side), decode tiers\n"
          "on admission-queue depth, and a draining decode replica stops\n"
          "being a KV-migration target while it finishes migrated-in\n"
          "work.\n";
    }
  }
  if (opts.observed()) {
    serve::write_exports(*obs, opts.trace_out, opts.metrics_out);
    // No separator line: the observed output must be exactly the
    // unobserved output plus these notices (the CI gate strips them with
    // `grep -v '^Wrote '` and compares byte-for-byte).
    if (!opts.trace_out.empty()) {
      std::cout << "Wrote trace-event JSON of the final sweep point to "
                << opts.trace_out << " (load at https://ui.perfetto.dev)\n";
    }
    if (!opts.metrics_out.empty()) {
      std::cout << "Wrote Prometheus metrics of the final sweep point to "
                << opts.metrics_out << "\n";
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
