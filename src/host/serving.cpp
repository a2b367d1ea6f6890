#include "host/serving.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "serve/fleet.hpp"
#include "serve/observe.hpp"
#include "workload/scenario.hpp"

namespace looplynx::host {

Host::Host(const quant::Gpt2Int8Weights& weights, Tokenizer tokenizer,
           core::ArchConfig arch)
    : weights_(&weights), tokenizer_(std::move(tokenizer)), arch_(arch) {
  if (tokenizer_.vocab_size() > weights.config.vocab_size) {
    throw std::invalid_argument(
        "tokenizer vocabulary exceeds the model's embedding table");
  }
}

ServeResult Host::generate(
    const ServeRequest& request,
    const std::function<void(std::uint32_t)>& on_token) {
  ServeResult result;
  result.prompt_ids = tokenizer_.encode(request.prompt);
  if (result.prompt_ids.empty()) {
    result.prompt_ids.push_back(tokenizer_.eos_id());
  }
  const std::uint32_t budget_total = weights_->config.max_seq_len;
  if (result.prompt_ids.size() >= budget_total) {
    throw std::invalid_argument("prompt exceeds the model context window");
  }

  core::FunctionalSystem accel(*weights_, arch_.num_nodes);
  std::vector<float> hidden;
  for (std::uint32_t id : result.prompt_ids) {
    hidden = accel.forward_token(id);
  }
  Sampler sampler(request.sampling);
  const std::uint32_t max_new = std::min<std::uint32_t>(
      request.max_new_tokens,
      budget_total - static_cast<std::uint32_t>(result.prompt_ids.size()));
  for (std::uint32_t i = 0; i < max_new; ++i) {
    const std::vector<float> logits = accel.logits(hidden);
    const std::uint32_t next = sampler.sample(logits);
    if (next == tokenizer_.eos_id()) {
      result.hit_eos = true;
      break;
    }
    result.output_ids.push_back(next);
    if (on_token) on_token(next);
    if (i + 1 < max_new) hidden = accel.forward_token(next);
  }
  result.text = tokenizer_.decode(result.output_ids);
  return result;
}

std::uint32_t Host::decode_steps(const ServeResult& result) {
  return static_cast<std::uint32_t>(std::max<std::size_t>(
      result.output_ids.size() + (result.hit_eos ? 1 : 0), 1));
}

const core::StepCostModel& Host::costs() {
  if (!costs_) {
    costs_.emplace(arch_, weights_->config, /*probe_stride=*/32);
  }
  return *costs_;
}

std::size_t Host::submit(
    const ServeRequest& request,
    const std::function<void(std::uint32_t)>& on_token) {
  pending_.push_back(generate(request, on_token));
  return pending_.size() - 1;
}

std::vector<ServeResult> Host::flush(
    const serve::SchedulerConfig& scheduler, std::uint32_t replicas,
    serve::BalancerPolicy balancer) {
  return run_flush(scheduler, replicas, balancer, nullptr);
}

std::vector<ServeResult> Host::flush(
    const serve::SchedulerConfig& scheduler,
    const serve::AutoscalerConfig& autoscale,
    serve::BalancerPolicy balancer) {
  if (!autoscale.enabled) {
    throw std::invalid_argument(
        "flush with an AutoscalerConfig requires autoscale.enabled (use "
        "the static overload otherwise)");
  }
  return run_flush(scheduler, autoscale.max_replicas, balancer, &autoscale);
}

std::vector<ServeResult> Host::flush_observed(
    const serve::SchedulerConfig& scheduler, std::uint32_t replicas,
    serve::BalancerPolicy balancer) {
  serve::Observer observer(replicas, arch_.frequency_hz);
  return run_flush(scheduler, replicas, balancer, nullptr, &observer);
}

std::vector<ServeResult> Host::run_flush(
    const serve::SchedulerConfig& scheduler, std::uint32_t replicas,
    serve::BalancerPolicy balancer,
    const serve::AutoscalerConfig* autoscale, serve::Observer* observer) {
  std::vector<ServeResult> results = std::move(pending_);
  pending_.clear();
  if (results.empty()) return results;

  // All submitted requests arrive at cycle 0 and share one
  // continuous-batching fleet, so their timings reflect scheduler
  // interleaving and KV pressure, not isolated runs. With replicas >= 2
  // the cycle-0 burst is routed across identical replicas by the
  // balancer (autoscaled fleets start at min_replicas live and grow as
  // the control loop reacts); a 1-replica fleet's rollup is its lone
  // replica's metrics. Request ids equal submit order either way (the
  // fleet allocates ids in injection order and sorts its pooled records
  // by id).
  serve::ServingConfig cfg;
  cfg.arch = arch_;
  cfg.model = weights_->config;
  cfg.scheduler = scheduler;
  cfg.keep_request_records = true;
  for (const ServeResult& r : results) {
    cfg.traffic.explicit_arrivals.push_back(serve::Arrival{
        0, workload::make_scenario(
               static_cast<std::uint32_t>(r.prompt_ids.size()),
               decode_steps(r))});
  }
  serve::FleetConfig fleet_cfg =
      serve::FleetConfig::homogeneous(cfg, replicas, balancer);
  if (autoscale != nullptr) fleet_cfg.autoscale = *autoscale;
  const serve::FleetMetrics metrics =
      serve::FleetSim(fleet_cfg, costs()).run(observer).fleet;
  if (metrics.requests.size() != results.size()) {
    throw std::logic_error("serve layer lost request records");
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const serve::RequestRecord& rec = metrics.requests[i];
    if (rec.id != i) {
      throw std::logic_error("serve layer permuted request records");
    }
    ServeResult& out = results[i];
    out.replica = rec.replica;
    out.live_replicas = rec.live_replicas;
    if (rec.rejected) {
      out.rejected = true;  // generation is valid, timing fields stay zero
      continue;
    }
    out.queue_ms = rec.queue_wait_ms;
    out.prefill_ms = rec.ttft_ms - rec.queue_wait_ms;
    out.decode_ms = rec.e2e_ms - rec.ttft_ms;
    out.total_ms = out.prefill_ms + out.decode_ms;
    out.prefill_chunks = rec.prefill_chunks;
    out.max_token_gap_ms = rec.max_token_gap_ms;
    out.preemptions = rec.preemptions;
    out.cached_prefix_tokens = rec.cached_prefix_tokens;
    if (rec.decode_tokens > 0 && out.decode_ms > 0) {
      out.decode_tokens_per_s =
          1e3 * static_cast<double>(rec.decode_tokens) / out.decode_ms;
    }
  }
  if (observer != nullptr) {
    // std::map iteration gives the categories sorted by name, so the
    // breakdown order is deterministic.
    for (ServeResult& out : results) {
      for (const auto& [cat, cycles] : observer->breakdown(out.replica)) {
        out.replica_breakdown_ms.emplace_back(cat, arch_.cycles_to_ms(cycles));
      }
    }
  }
  return results;
}

ServeResult Host::serve(const ServeRequest& request,
                        const std::function<void(std::uint32_t)>& on_token) {
  submit(request, on_token);
  std::vector<ServeResult> results = flush();
  return std::move(results.front());
}

}  // namespace looplynx::host
