// Tests for the serve-layer observability subsystem (DESIGN.md §7): the
// lifecycle event log's ordering invariants, the cycle-accounting tiling
// identity across the {batch policy x preempt policy x autoscale} matrix,
// byte-identical exports across repeated runs, the observed-run ==
// unobserved-run metrics guarantee, and the CLI flag plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/autoscaler.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

/// Cosim dimensions with a context window wide enough for whale shapes.
model::ModelConfig observe_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

ServingConfig base_config() {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"test",
                                  {{workload::make_scenario(8, 16), 0.5},
                                   {workload::make_scenario(16, 8), 0.3},
                                   {workload::make_scenario(4, 32), 0.2}}};
  cfg.traffic.num_requests = 24;
  cfg.traffic.arrival_rate_per_s = 200.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  return cfg;
}

/// Tight paged KV + saturating arrivals: the pool runs dry, so recompute
/// preemption demonstrably fires (pinned below).
ServingConfig preempting_config() {
  ServingConfig cfg = base_config();
  cfg.traffic.mix = workload::Mix{"decode-heavy",
                                  {{workload::make_scenario(8, 40), 0.7},
                                   {workload::make_scenario(4, 24), 0.3}}};
  cfg.traffic.num_requests = 96;
  cfg.traffic.arrival_rate_per_s = 400.0;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  cfg.scheduler.max_in_flight = 8;
  cfg.kv_block_tokens = 4;
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 144 * probe.bytes_per_token_per_node();
  return cfg;
}

/// Bursty whale-heavy fleet that scales between 1 and 3 replicas.
FleetConfig autoscaled_config() {
  ServingConfig base = base_config();
  base.model = observe_model();
  base.traffic.mix = workload::Mix{"skewed",
                                   {{workload::make_scenario(8, 16), 0.7},
                                    {workload::make_scenario(192, 48), 0.3}}};
  base.traffic.num_requests = 48;
  base.traffic.arrival_rate_per_s = 600.0;
  base.traffic.process = ArrivalProcess::kBursty;
  base.traffic.burst_factor = 4.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 0.05;
  base.scheduler.max_in_flight = 4;

  FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  cfg.autoscale.enabled = true;
  cfg.autoscale.policy = ScalePolicy::kQueueDepth;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 3;
  cfg.autoscale.eval_interval_ms = 2.0;
  cfg.autoscale.queue_high = 1.0;
  cfg.autoscale.queue_low = 0.25;
  cfg.autoscale.up_evals = 1;
  cfg.autoscale.down_evals = 2;
  cfg.autoscale.cooldown_evals = 1;
  return cfg;
}

/// Asserts the tiling identity plus the event log's structural invariants
/// on a finalized observer: timestamps are globally nondecreasing (the
/// log is time-sorted at finalize), every request's lifecycle is
/// well-ordered (arrive first; cache lookups and steals before admission;
/// admit before any chunk; first-token before decode and before its KV
/// migrates; finish/reject terminal), and replica indices are in range.
void check_observer_invariants(const Observer& obs) {
  ASSERT_TRUE(obs.finalized());
  // Tiling: per replica, the category totals sum to the makespan exactly.
  for (std::uint32_t r = 0; r < obs.replicas(); ++r) {
    sim::Cycles total = 0;
    for (const auto& [cat, cycles] : obs.breakdown(r)) total += cycles;
    EXPECT_EQ(total, obs.makespan()) << "replica " << r;
  }
  // Event-log ordering.
  sim::Cycles prev = 0;
  struct PerRequest {
    bool arrived = false, admitted = false, first_token = false;
    bool terminal = false;
    sim::Cycles arrive_at = 0, admit_at = 0, ttft_at = 0, end_at = 0;
  };
  std::map<std::uint32_t, PerRequest> reqs;
  for (const ObservedEvent& e : obs.events()) {
    EXPECT_GE(e.at, prev) << "event log must follow engine time";
    prev = e.at;
    EXPECT_LT(e.replica, obs.replicas());
    if (e.request == kNoRequest) {
      EXPECT_TRUE(e.kind == LifecycleEvent::kScaleUp ||
                  e.kind == LifecycleEvent::kScaleDown ||
                  e.kind == LifecycleEvent::kDrain);
      continue;
    }
    PerRequest& r = reqs[e.request];
    EXPECT_FALSE(r.terminal) << "events after finish/reject, request "
                             << e.request;
    switch (e.kind) {
      case LifecycleEvent::kRoute:
        break;  // fleet-level routing precedes arrival at the replica
      case LifecycleEvent::kArrive:
        EXPECT_FALSE(r.arrived);
        r.arrived = true;
        r.arrive_at = e.at;
        break;
      case LifecycleEvent::kAdmit:
        EXPECT_TRUE(r.arrived);
        r.admitted = true;
        r.admit_at = e.at;
        EXPECT_GE(e.at, r.arrive_at);
        break;
      case LifecycleEvent::kReject:
        EXPECT_TRUE(r.arrived);
        r.terminal = true;
        break;
      case LifecycleEvent::kCacheHit:
      case LifecycleEvent::kCacheMiss:
        EXPECT_TRUE(r.arrived);  // looked up at admission, before kAdmit
        break;
      case LifecycleEvent::kSteal:
        EXPECT_TRUE(r.arrived);  // only queued requests are stolen
        EXPECT_FALSE(r.admitted);
        break;
      case LifecycleEvent::kKvMigrate:
        // Shipped after the prompt's last chunk emitted token #1. (The
        // re-admission at delivery keeps the first admission's stamp, so
        // it sorts ahead of this event.)
        EXPECT_TRUE(r.first_token);
        break;
      case LifecycleEvent::kFirstChunk:
      case LifecycleEvent::kChunk:
      case LifecycleEvent::kRecomputeStart:
      case LifecycleEvent::kRecomputeEnd:
      case LifecycleEvent::kPreempt:
        EXPECT_TRUE(r.admitted);
        break;
      case LifecycleEvent::kFirstToken:
        EXPECT_TRUE(r.admitted);
        EXPECT_FALSE(r.first_token);
        r.first_token = true;
        r.ttft_at = e.at;
        EXPECT_GE(e.at, r.admit_at);
        break;
      case LifecycleEvent::kDecode:
        EXPECT_TRUE(r.first_token);
        break;
      case LifecycleEvent::kFinish:
        EXPECT_TRUE(r.first_token);
        r.terminal = true;
        r.end_at = e.at;
        EXPECT_GE(e.at, r.ttft_at);
        break;
      default:
        ADD_FAILURE() << "unexpected fleet-scoped kind on request event";
    }
  }
  for (const auto& [id, r] : reqs) {
    EXPECT_TRUE(r.terminal) << "request " << id << " never finished";
  }
}

std::uint64_t count_kind(const Observer& obs, LifecycleEvent kind) {
  std::uint64_t n = 0;
  for (const ObservedEvent& e : obs.events()) n += (e.kind == kind) ? 1 : 0;
  return n;
}

// ---------------------------------------------- Observer construction

TEST(ObserverTest, ConstructorValidatesArguments) {
  EXPECT_THROW(Observer(0, 285e6), std::invalid_argument);
  EXPECT_THROW(Observer(1, 0.0), std::invalid_argument);
  EXPECT_THROW(Observer(1, -1.0), std::invalid_argument);
  EXPECT_NO_THROW(Observer(4, 285e6));
}

TEST(ObserverTest, LifecycleEventNamesAreStable) {
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kRoute), "route");
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kFirstToken),
               "first-token");
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kRecomputeStart),
               "recompute-start");
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kScaleDown),
               "scale-down");
}

TEST(ObserverTest, WaitPairingMisuseThrows) {
  Observer obs(1, 285e6);
  EXPECT_THROW(obs.end_wait(0, 10), std::logic_error);  // no open wait
  obs.begin_wait(0, Category::kSchedulerIdle, 0);
  EXPECT_THROW(obs.begin_wait(0, Category::kKvStall, 5), std::logic_error);
  obs.end_wait(0, 10);
  EXPECT_NO_THROW(obs.begin_wait(0, Category::kKvStall, 10));
}

TEST(ObserverTest, ExportBeforeFinalizeThrows) {
  Observer obs(1, 285e6);
  std::ostringstream os;
  EXPECT_THROW(obs.write_chrome_trace(os), std::logic_error);
  EXPECT_THROW(obs.write_prometheus(os), std::logic_error);
  obs.finalize(0);
  EXPECT_NO_THROW(obs.write_chrome_trace(os));
  EXPECT_THROW(obs.finalize(0), std::logic_error);  // single-use
}

TEST(ObserverTest, FinalizeAssertsTheTilingIdentity) {
  Observer obs(1, 285e6);
  obs.add_span(0, Category::kDecode, 0, 50);  // 50-cycle gap to makespan...
  EXPECT_THROW(obs.finalize(100), std::logic_error);
  Observer ok(1, 285e6);
  ok.add_span(0, Category::kDecode, 0, 50);
  ok.mark_exit(0, 50);  // ...unless the tail is accounted as drain
  ok.finalize(100);
  EXPECT_EQ(ok.breakdown(0).at(category_name(Category::kDrain)), 50u);
}

TEST(ObserverTest, BreakdownListsZeroWidthCategoriesAtZeroCycles) {
  Observer obs(1, 285e6);
  obs.add_span(0, Category::kDecode, 0, 50);
  obs.add_span(0, Category::kKvSwap, 50, 50);     // zero-width span
  obs.begin_wait(0, Category::kSchedulerIdle, 50);
  obs.end_wait(0, 50);                            // zero-width wait
  obs.mark_exit(0, 50);
  EXPECT_THROW(obs.breakdown(0), std::logic_error);  // built by finalize
  obs.finalize(100);
  const std::map<std::string, sim::Cycles> want = {
      {"decode", 50}, {"drain", 50}, {"kv-swap", 0}, {"scheduler-idle", 0}};
  EXPECT_EQ(obs.breakdown(0), want);
}

// ------------------------------------------- Time sort of the event log

/// Records `log` through Observer::record, finalizes, and requires the
/// sorted log to equal std::stable_sort of the recording by `at`, field
/// by field. Each event's `request` is its recording index, so a tie
/// broken out of recording order shows.
void expect_finalize_matches_stable_sort(
    const std::vector<ObservedEvent>& log) {
  Observer obs(1, 285e6);
  for (const ObservedEvent& e : log) {
    obs.record(e.kind, e.at, e.request, e.replica, e.a, e.b);
  }
  obs.finalize(0);
  std::vector<ObservedEvent> want = log;
  std::stable_sort(want.begin(), want.end(),
                   [](const ObservedEvent& x, const ObservedEvent& y) {
                     return x.at < y.at;
                   });
  const std::vector<ObservedEvent>& got = obs.events();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ObservedEvent& g = got[i];
    const ObservedEvent& w = want[i];
    if (g.at != w.at || g.kind != w.kind || g.request != w.request ||
        g.replica != w.replica || g.a != w.a || g.b != w.b) {
      ADD_FAILURE() << "first mismatch at sorted index " << i << ": got at="
                    << g.at << " request=" << g.request << ", want at="
                    << w.at << " request=" << w.request;
      return;
    }
  }
}

ObservedEvent event_at(sim::Cycles at, std::uint32_t index) {
  return ObservedEvent{at, LifecycleEvent::kDecode, index, index % 3,
                       index * 7, index ^ 0x5a5au};
}

TEST(ObserverSortTest, LocalDisorderWithManyTiesMatchesStableSort) {
  // Stamps advance every fourth event and jitter a few stamps either way:
  // events sit a handful of places from their slot, among many equals.
  util::Rng rng(7);
  std::vector<ObservedEvent> log;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    log.push_back(event_at(i / 4 + rng.next_below(4), i));
  }
  expect_finalize_matches_stable_sort(log);
}

TEST(ObserverSortTest, FarDisplacedEventMatchesStableSort) {
  // A migrated request's re-admission keeps its first admission's stamp
  // but is recorded much later: one event thousands of places early.
  std::vector<ObservedEvent> log;
  for (std::uint32_t i = 0; i < 10000; ++i) log.push_back(event_at(i / 3, i));
  log.insert(log.begin() + 8000, event_at(500, 10000));
  expect_finalize_matches_stable_sort(log);
}

TEST(ObserverSortTest, ReverseSortedLogMatchesStableSort) {
  // Every event moves past all earlier ones: far beyond the insertion
  // pass's move budget, so the sort falls back to std::stable_sort.
  std::vector<ObservedEvent> log;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    log.push_back(event_at((4096 - i) / 2, i));
  }
  expect_finalize_matches_stable_sort(log);
}

// ------------------------------------- Observed runs and the tiling law

TEST(ObserveRunTest, ObservedRunLeavesMetricsUntouched) {
  const ServingConfig cfg = base_config();
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);
  const FleetMetrics plain =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run().fleet;
  Observer obs(1, cfg.arch.frequency_hz);
  const FleetMetrics observed =
      FleetSim(FleetConfig::homogeneous(cfg, 1), costs).run(&obs).fleet;
  // Bit-identical, not approximately equal: observation is pure
  // bookkeeping, it must not perturb the simulation.
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.rejected, observed.rejected);
  EXPECT_EQ(plain.duration_s, observed.duration_s);
  EXPECT_EQ(plain.ttft_ms.p99, observed.ttft_ms.p99);
  EXPECT_EQ(plain.e2e_ms.mean, observed.e2e_ms.mean);
  EXPECT_EQ(plain.kv_stall_events, observed.kv_stall_events);
}

TEST(ObserveRunTest, TilingHoldsAcrossPolicyMatrix) {
  for (const BatchPolicy policy :
       {BatchPolicy::kPrefillPriority, BatchPolicy::kDecodePriority,
        BatchPolicy::kChunkedMixed}) {
    ServingConfig cfg = base_config();
    cfg.scheduler.policy = policy;
    if (policy == BatchPolicy::kChunkedMixed) {
      cfg.scheduler.max_tokens_per_iter = 16;
    }
    Observer obs(1, cfg.arch.frequency_hz);
    const FleetMetrics m =
        FleetSim(FleetConfig::homogeneous(cfg, 1)).run(&obs).fleet;
    check_observer_invariants(obs);
    EXPECT_GT(obs.makespan(), 0u);
    EXPECT_EQ(count_kind(obs, LifecycleEvent::kFinish), m.completed);
    EXPECT_EQ(count_kind(obs, LifecycleEvent::kReject), m.rejected);
    EXPECT_EQ(count_kind(obs, LifecycleEvent::kArrive), m.offered);
  }
}

TEST(ObserveRunTest, PreemptionEventsAndRecomputeCyclesAppear) {
  const ServingConfig cfg = preempting_config();
  Observer obs(1, cfg.arch.frequency_hz);
  const FleetMetrics m =
      FleetSim(FleetConfig::homogeneous(cfg, 1)).run(&obs).fleet;
  check_observer_invariants(obs);
  ASSERT_GT(m.preemptions, 0u);  // the config must exercise the pool limit
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kPreempt), m.preemptions);
  // Every preemption implies a recovery: recompute-start events and
  // recompute cycles in the breakdown.
  EXPECT_GT(count_kind(obs, LifecycleEvent::kRecomputeStart), 0u);
  EXPECT_GT(obs.breakdown(0).at(category_name(Category::kRecompute)), 0u);
}

TEST(ObserveRunTest, FleetRunTilesEveryReplica) {
  ServingConfig base = base_config();
  base.traffic.num_requests = 48;
  const FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  Observer obs(3, base.arch.frequency_hz);
  const FleetResult fr = FleetSim(cfg).run(&obs);
  check_observer_invariants(obs);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kRoute), fr.fleet.offered);
  // A static fleet records no scale traffic.
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleUp), 0u);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleDown), 0u);
}

TEST(ObserveRunTest, AutoscaledRunRecordsScaleAndDrainEvents) {
  const FleetConfig cfg = autoscaled_config();
  Observer obs(cfg.autoscale.max_replicas,
               cfg.replicas.front().arch.frequency_hz);
  const FleetResult fr = FleetSim(cfg).run(&obs);
  check_observer_invariants(obs);
  ASSERT_FALSE(fr.scale_events.empty());  // the burst must move the fleet
  std::uint64_t ups = 0, downs = 0;
  for (const ScaleEvent& e : fr.scale_events) (e.to > e.from ? ups : downs)++;
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleUp), ups);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleDown), downs);
  // Every scale-down drains the deactivated replica.
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kDrain), downs);
}

TEST(ObserveRunTest, DisaggregatedRunKeepsLogInvariants) {
  ServingConfig base = base_config();
  base.traffic.num_requests = 48;
  FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
               ReplicaRole::kDecode};
  cfg.kv_link.bytes_per_cycle = 16.0;
  Observer obs(3, base.arch.frequency_hz);
  const FleetResult fr = FleetSim(cfg).run(&obs);
  check_observer_invariants(obs);
  ASSERT_GT(fr.fleet.kv_migrations, 0u);  // the split must move KV
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kKvMigrate),
            fr.fleet.kv_migrations);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kSteal), fr.fleet.work_steals);
  // A migrated request is admitted twice: on its prefill replica, then
  // again on the decode replica its KV landed on.
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kAdmit),
            fr.fleet.completed + fr.fleet.kv_migrations);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kFinish), fr.fleet.completed);
}

TEST(ObserveRunTest, RunRejectsMismatchedObserverWidth) {
  const ServingConfig cfg = base_config();
  Observer wide(2, cfg.arch.frequency_hz);
  EXPECT_THROW(FleetSim(FleetConfig::homogeneous(cfg, 1)).run(&wide),
               std::invalid_argument);
  const FleetConfig fleet = FleetConfig::homogeneous(
      base_config(), 3, BalancerPolicy::kRoundRobin);
  Observer narrow(2, cfg.arch.frequency_hz);
  EXPECT_THROW(FleetSim(fleet).run(&narrow), std::invalid_argument);
}

// ------------------------------------------------- Byte-stable exports

TEST(ObserveExportTest, RepeatedRunsExportIdenticalBytes) {
  const ServingConfig cfg = preempting_config();
  const auto run_and_export = [&cfg](std::string& trace, std::string& prom) {
    Observer obs(1, cfg.arch.frequency_hz);
    FleetSim(FleetConfig::homogeneous(cfg, 1)).run(&obs);
    std::ostringstream t, p;
    obs.write_chrome_trace(t);
    obs.write_prometheus(p);
    trace = t.str();
    prom = p.str();
  };
  std::string trace_a, prom_a, trace_b, prom_b;
  run_and_export(trace_a, prom_a);
  run_and_export(trace_b, prom_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(prom_a, prom_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_FALSE(prom_a.empty());
}

TEST(ObserveExportTest, ChromeTraceCarriesLifecycleAndBreakdown) {
  const ServingConfig cfg = preempting_config();
  Observer obs(1, cfg.arch.frequency_hz);
  FleetSim(FleetConfig::homogeneous(cfg, 1)).run(&obs);
  std::ostringstream os;
  obs.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"simulated-cycles\""), std::string::npos);
  for (const char* cat : {"decode", "recompute", "host-sync"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << cat;
  }
  // Async request spans and preemption instants made it through.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"preempt\""), std::string::npos);
}

TEST(ObserveExportTest, PrometheusEmitsAllCategoriesForEveryReplica) {
  ServingConfig base = base_config();
  const FleetConfig cfg =
      FleetConfig::homogeneous(base, 2, BalancerPolicy::kRoundRobin);
  Observer obs(2, base.arch.frequency_hz);
  FleetSim(cfg).run(&obs);
  std::ostringstream os;
  obs.write_prometheus(os);
  const std::string text = os.str();
  // The per-category counter line set is complete even for categories that
  // never accrued cycles, so scrape-side dashboards see a stable schema.
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (const char* cat : kCategories) {
      const std::string line = "looplynx_replica_cycles_total{replica=\"" +
                               std::to_string(r) + "\",category=\"" + cat +
                               "\"}";
      EXPECT_NE(text.find(line), std::string::npos) << line;
    }
  }
  EXPECT_NE(text.find("# TYPE looplynx_requests_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("looplynx_ttft_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// ------------------------------------------------------- CLI plumbing

util::Cli make_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "test");
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return util::Cli(static_cast<int>(argv.size()), argv.data(),
                   {"test", scheduler_flags({})});
}

TEST(ObserveCliTest, ExportFlagsParseAndValidate) {
  const SchedulerCliOptions off = parse_scheduler_cli(make_cli({}));
  EXPECT_TRUE(off.trace_out.empty());
  EXPECT_TRUE(off.metrics_out.empty());
  EXPECT_FALSE(off.observed());

  const SchedulerCliOptions on = parse_scheduler_cli(make_cli(
      {"--trace-out=/tmp/t.json", "--metrics-out=/tmp/m.prom"}));
  EXPECT_EQ(on.trace_out, "/tmp/t.json");
  EXPECT_EQ(on.metrics_out, "/tmp/m.prom");
  EXPECT_TRUE(on.observed());

  // A bare flag (no path) is a usage error, not a silent no-op.
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--trace-out"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--metrics-out"})),
               std::invalid_argument);
}

TEST(ObserveCliTest, WriteExportsRejectsUnwritablePaths) {
  Observer obs(1, 285e6);
  obs.finalize(0);
  EXPECT_NO_THROW(write_exports(obs, "", ""));  // both disabled: no-op
  EXPECT_THROW(
      write_exports(obs, "/nonexistent-dir/trace.json", ""),
      std::runtime_error);
}

}  // namespace
}  // namespace looplynx::serve
