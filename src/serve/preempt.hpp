// KV-pressure preemption policy for the continuous-batching scheduler.
// Lives in its own small header so metric-only consumers (FleetMetrics)
// do not pull in the scheduler/request/coroutine stack.
#pragma once

#include <cstdint>
#include <string>

namespace looplynx::serve {

/// What the scheduler does when a selected step needs a KV block and the
/// paged pool (KvBlockManager) has none free.
enum class PreemptPolicy : std::uint8_t {
  /// Never preempt. Admission reserves a request's whole lifetime KV
  /// footprint up front, so a running request can never hit an empty pool
  /// mid-flight — the pre-paging reservation discipline, and the default
  /// for byte-identical sweeps.
  kNone,
  /// Admit on the prompt's blocks only and grow decode blocks on demand.
  /// When a decode's grow finds the pool dry, the youngest block-holding
  /// request *strictly younger* than it (higher id — admission is FIFO,
  /// so also later-admitted) is preempted: its blocks are freed and its
  /// emitted decode tokens fold back into the prefill target, so chunked
  /// prefill re-runs [0, prompt + decoded) and rebuilds the KV
  /// (recompute, not swap). Eviction pressure only flows old -> young and
  /// re-prefills wait for free blocks instead of evicting, so the oldest
  /// request always drains to completion — livelock-free by construction
  /// (see ensure_kv_blocks in serve/replica.cpp).
  kRecomputeYoungest,
  /// Same admission discipline and eviction *eligibility* as
  /// kRecomputeYoungest (only strictly-younger decode-phase block holders
  /// can be victims — the property the livelock-freedom argument rests
  /// on), but the victim is chosen cost-aware: the candidate whose KV is
  /// cheapest to rebuild (StepCostModel::recompute_cycles over its live
  /// KV length), tie-broken youngest-first so ties reproduce the legacy
  /// choice. Minimizes the recompute bill each eviction signs instead of
  /// minimizing lost *age*.
  kRecomputeCostAware,
};

/// CLI-facing preemption names ("none" | "recompute" | "cost-aware"),
/// shared by the bench and example surfaces. Throws std::invalid_argument
/// on an unknown name.
PreemptPolicy parse_preempt_policy(const std::string& name);
const char* preempt_policy_name(PreemptPolicy policy);

}  // namespace looplynx::serve
