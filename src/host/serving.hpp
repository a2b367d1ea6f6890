// Host-side serving runtime (paper Fig. 2(b)).
//
// The host owns tokenization and sampling; the accelerator owns the
// transformer stack. Functionality and timing are deliberately decoupled
// (DESIGN.md §3): token *data* comes from core::FunctionalSystem, request
// *timing* comes from the serve-layer engine. The host no longer owns a
// private timing loop — it submits realized request shapes into a
// continuous-batching serve::FleetSim (DESIGN.md §4-5), so a batch of
// submitted requests shares the fleet's scheduler, paged KV-block
// accounting and host-sync amortization exactly like open traffic would.
//
// Two usage patterns:
//   serve(req)              — one request, generation + timing, blocking.
//   submit(req)... flush()  — enqueue several requests, then run them
//                             through one continuous-batching fleet; each
//                             result carries its own TTFT / latency split.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_config.hpp"
#include "core/functional_system.hpp"
#include "core/step_cost.hpp"
#include "host/sampler.hpp"
#include "host/tokenizer.hpp"
#include "quant/int8_model.hpp"
#include "serve/fleet.hpp"
#include "serve/scheduler.hpp"

namespace looplynx::host {

struct ServeRequest {
  std::string prompt;
  std::uint32_t max_new_tokens = 64;
  SamplerConfig sampling;
};

struct ServeResult {
  std::string text;  // decoded generation (without the prompt)
  std::vector<std::uint32_t> prompt_ids;
  std::vector<std::uint32_t> output_ids;
  bool hit_eos = false;

  // Timing of this request's realized shape on the configured deployment,
  // as scheduled by the continuous-batching serve layer.
  double prefill_ms = 0;   // admission -> first token (queueing excluded)
  double decode_ms = 0;
  double total_ms = 0;     // prefill + decode
  double queue_ms = 0;     // arrival -> admission (0 for lone requests)
  double decode_tokens_per_s = 0;
  /// Scheduler iterations the prompt took (> 1 when chunked prefill split
  /// it; see serve::SchedulerConfig::max_tokens_per_iter).
  std::uint32_t prefill_chunks = 0;
  /// Worst gap between consecutive streamed tokens — the jitter chunked
  /// prefill bounds when other requests' prompts land mid-generation.
  double max_token_gap_ms = 0;
  /// Times the fleet preempted this request under the recompute preemption
  /// policies (KV dropped, sequence re-prefilled before decoding resumed);
  /// 0 under the default policy.
  std::uint32_t preemptions = 0;
  /// Prompt tokens admission skipped via the serve layer's
  /// content-addressed prefix cache (serve::ServingConfig::prefix_cache);
  /// 0 with the cache off or on a clean miss.
  std::uint32_t cached_prefix_tokens = 0;
  /// True when fleet admission control shed this request: the generation
  /// above is still valid, but every timing field is zero/meaningless.
  bool rejected = false;
  /// Index of the fleet replica that served this request (0 unless
  /// flush() ran with replicas >= 2 — the balancer's routing decision).
  std::uint32_t replica = 0;
  /// Live replica count when the balancer routed this request: 1 for
  /// single-replica runs, the fleet width for static fleets, and the
  /// autoscaler's current live set under flush(..., autoscale, ...) —
  /// always > `replica` (the live set is the index prefix).
  std::uint32_t live_replicas = 1;
  /// Cycle-accounting breakdown of the replica that served this request,
  /// as (category, milliseconds) sorted by category name. Filled only by
  /// flush_observed(); the category totals tile the replica's whole run
  /// timeline (serve/observe.hpp), so summing them yields the makespan.
  std::vector<std::pair<std::string, double>> replica_breakdown_ms;
};

class Host {
 public:
  /// `arch.num_nodes` selects the deployment; the functional system uses the
  /// same partition. Throws if the tokenizer vocabulary exceeds the model's.
  Host(const quant::Gpt2Int8Weights& weights, Tokenizer tokenizer,
       core::ArchConfig arch);

  /// Serves one request end to end. `on_token` (optional) is invoked with
  /// each generated token id as it is produced (streaming callback).
  ServeResult serve(const ServeRequest& request,
                    const std::function<void(std::uint32_t)>& on_token = {});

  /// Runs the functional pass now (the generation is available in the
  /// returned index's result after flush()) and queues the realized shape
  /// for batched timing. Returns the request's position in flush() output.
  std::size_t submit(const ServeRequest& request,
                     const std::function<void(std::uint32_t)>& on_token = {});

  /// Times all submitted requests through one continuous-batching fleet
  /// (all arriving at cycle 0) and returns their results in submit order.
  /// With `replicas` >= 2 the batch is sharded across that many copies of
  /// the deployment behind `balancer` (serve::FleetSim); each result's
  /// `replica` records where it ran. replicas == 1 is the single-replica
  /// engine, byte-identical to the pre-fleet behavior.
  std::vector<ServeResult> flush(
      const serve::SchedulerConfig& scheduler = {},
      std::uint32_t replicas = 1,
      serve::BalancerPolicy balancer = serve::BalancerPolicy::kRoundRobin);

  /// Like flush(scheduler, replicas, balancer), but the fleet autoscales:
  /// the pool is `autoscale.max_replicas` copies of the deployment, the
  /// run starts with `autoscale.min_replicas` live, and the control loop
  /// grows/shrinks the live set as the batch drains (`autoscale.enabled`
  /// must be set). Each result's `replica` / `live_replicas` record where
  /// it ran and how wide the fleet was when it was routed.
  std::vector<ServeResult> flush(const serve::SchedulerConfig& scheduler,
                                 const serve::AutoscalerConfig& autoscale,
                                 serve::BalancerPolicy balancer =
                                     serve::BalancerPolicy::kRoundRobin);

  /// Like flush(scheduler, replicas, balancer), but runs the fleet with a
  /// serve::Observer attached and fills each result's
  /// replica_breakdown_ms with the serving replica's cycle-accounting
  /// breakdown. Observation is pure bookkeeping — every timing field
  /// matches the plain flush() byte for byte.
  std::vector<ServeResult> flush_observed(
      const serve::SchedulerConfig& scheduler = {},
      std::uint32_t replicas = 1,
      serve::BalancerPolicy balancer = serve::BalancerPolicy::kRoundRobin);

  const Tokenizer& tokenizer() const { return tokenizer_; }
  std::uint32_t eos_id() const { return tokenizer_.eos_id(); }
  std::size_t pending() const { return pending_.size(); }

 private:
  /// Functional pass: tokenize, prefill, sampled decode until EOS/budget.
  ServeResult generate(const ServeRequest& request,
                       const std::function<void(std::uint32_t)>& on_token);

  /// Shared flush engine: times the pending batch through one fleet
  /// (static width `replicas`, or autoscaled when `autoscale` is
  /// non-null) and maps the records back onto the results.
  std::vector<ServeResult> run_flush(
      const serve::SchedulerConfig& scheduler, std::uint32_t replicas,
      serve::BalancerPolicy balancer,
      const serve::AutoscalerConfig* autoscale,
      serve::Observer* observer = nullptr);

  /// Realized decode-step count of a generation (>= 1; EOS counts).
  static std::uint32_t decode_steps(const ServeResult& result);

  const core::StepCostModel& costs();

  const quant::Gpt2Int8Weights* weights_;
  Tokenizer tokenizer_;
  core::ArchConfig arch_;
  /// Lazily probed on first timing use, then shared by every serve/flush.
  std::optional<core::StepCostModel> costs_;
  std::vector<ServeResult> pending_;
};

}  // namespace looplynx::host
