// Single-replica continuous-batching serving engine on the sim::Engine
// event loop.
//
// A TrafficGen injects requests, a RequestQueue holds them until the paged
// KvBlockManager has room (whole footprint under PreemptPolicy::kNone,
// prompt blocks only under kRecomputeYoungest — decode blocks then grow on
// demand, preempting the youngest victim when the pool runs dry), and the
// Scheduler runs iteration-level continuous batching over the admitted
// set. Batch members occupy the time-shared pipeline back to back inside
// an iteration — each priced by core::StepCostModel rather than
// re-simulated — and the host PCIe sync is paid once per iteration; the
// replica's scheduler loop steps every member itself, one engine wake per
// iteration, except that a decode-only stretch between arrivals is booked
// in one wake with identical results (serve/replica.hpp).
//
// ServingSim is a 1-replica FleetSim (serve/fleet.hpp): it holds the
// fleet built from FleetConfig::homogeneous(config, 1) — validated at
// construction — and returns that run's fleet rollup (its only replica's
// metrics plus the request records).
//
// Invariants:
//  - Determinism: same ServingConfig (including traffic seed) =>
//    identical FleetMetrics, matching the engine's bit-reproducibility
//    guarantee. The CI byte-identical sweep gate rests on this.
//  - Legacy identity: kv_block_tokens == 1 with PreemptPolicy::kNone
//    reproduces the pre-paging whole-footprint accounting bit for bit.
//  - Livelock-freedom: under kRecomputeYoungest every admitted request
//    completes — preconditioned on age-ordered, decode-only eviction and
//    admission-pause-while-recovering (see scheduler_proc in
//    serve/replica.cpp for the argument).
//
// Architecture notes: DESIGN.md §4 (single replica), §5 (fleets).
#pragma once

#include <memory>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

namespace looplynx::serve {

class Observer;  // serve/observe.hpp
class FleetSim;  // serve/fleet.hpp

struct ServingConfig {
  core::ArchConfig arch = core::ArchConfig::two_node();
  model::ModelConfig model = model::gpt2_medium();
  SchedulerConfig scheduler;
  TrafficConfig traffic;
  /// 0 selects the architecture default (kv_channels x 256 MiB per node).
  std::uint64_t kv_budget_bytes_per_node = 0;
  /// Paged-KV block granularity in tokens (KvBlockManager). 1 ==
  /// token-granular, which with SchedulerConfig::preempt == kNone is
  /// bit-identical to the pre-paging whole-footprint reservation.
  std::uint32_t kv_block_tokens = 1;
  /// Probe stride for the StepCostModel (1 = exact per-position costs).
  std::uint32_t cost_probe_stride = 64;
  /// Content-addressed prefix caching (serve/kv_block.hpp PrefixCache):
  /// admission skips prompt tokens whose KV is already cached, completed
  /// prompt blocks are published for later requests, and refcount-zero
  /// blocks stay cached-idle until pool pressure reclaims them. false (the
  /// default) constructs no cache at all — the run is byte-identical to a
  /// build without the feature.
  bool prefix_cache = false;
  /// Swap-to-host eviction tier: a reclaimed cache block whose prefill
  /// rebuild costs more than a DMA round-trip moves to host DRAM instead
  /// of being discarded, and is restored (transfer priced into the next
  /// iteration's `kv-swap` span) when hit again. Requires prefix_cache.
  bool kv_swap = false;
  SloConfig slo;
  /// Fill FleetMetrics::requests with per-request outcomes.
  bool keep_request_records = false;
};

class ServingSim {
 public:
  /// Builds the step-cost model internally (probes the timed system).
  /// Throws std::invalid_argument on an invalid config.
  explicit ServingSim(const ServingConfig& config);

  /// Reuses an existing cost model — sweep harnesses that vary only the
  /// traffic or scheduler knobs should share one across points. Throws
  /// std::invalid_argument when `config`'s arch or model differs from the
  /// one `costs` was built for.
  ServingSim(const ServingConfig& config, const core::StepCostModel& costs);

  /// Simulates the replica to completion and returns its metrics.
  FleetMetrics run() const;

  /// Same run with an observer attached (serve/observe.hpp): the engine
  /// room records lifecycle events and cycle-accounting spans into it, and
  /// the observer is finalized (tiling asserted, exports unlocked) before
  /// returning. `observer` may be null (identical to run()); when non-null
  /// it must be freshly constructed for 1 replica at this config's clock.
  /// Observation is pure bookkeeping: the returned metrics are identical
  /// to an unobserved run's.
  FleetMetrics run(Observer* observer) const;

 private:
  std::shared_ptr<const FleetSim> fleet_;
};

}  // namespace looplynx::serve
