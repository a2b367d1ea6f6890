// Tests of the benchmark suite's own machinery: the rep verifier must
// reject doctored results, the statistics and JSON helpers must produce
// what compare.py and the result readers expect, and BENCHMARK.json must
// stay within its format limits and agree with the harness's workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/fleet.hpp"
#include "suite.hpp"

namespace looplynx::suite {
namespace {

/// A small healthy result: 2 replicas, 10 requests, one shed.
serve::FleetResult healthy() {
  serve::FleetResult r;
  r.replicas.resize(2);
  r.replicas[0].offered = 6;
  r.replicas[0].completed = 5;
  r.replicas[0].rejected = 1;
  r.replicas[1].offered = 4;
  r.replicas[1].completed = 4;
  r.fleet.offered = 10;
  r.fleet.completed = 9;
  r.fleet.rejected = 1;
  return r;
}

TEST(Verify, HealthyResultPasses) {
  EXPECT_TRUE(check_invariants(healthy()).empty());
}

TEST(Verify, RejectsBrokenReplicaConservation) {
  serve::FleetResult r = healthy();
  r.replicas[1].completed = 3;  // a request vanished on replica 1
  EXPECT_EQ(check_invariants(r).size(), 1u);
}

TEST(Verify, RejectsBrokenFleetConservation) {
  serve::FleetResult r = healthy();
  r.fleet.completed = 8;
  EXPECT_EQ(check_invariants(r).size(), 1u);
}

TEST(Verify, RejectsKvLeakAndOverRelease) {
  serve::FleetResult r = healthy();
  r.fleet.kv_blocks_in_use_at_end = 3;
  EXPECT_EQ(check_invariants(r).size(), 1u);
  r.fleet.kv_over_release_events = 1;
  EXPECT_EQ(check_invariants(r).size(), 2u);
}

TEST(Verify, RejectsFabricByteMismatch) {
  serve::FleetResult r = healthy();
  r.disaggregated = true;
  // Replica 0 shipped one prompt's KV to replica 1.
  r.replicas[0].handoffs_out = 1;
  r.replicas[0].completed = 4;
  r.replicas[1].handoffs_in = 1;
  r.replicas[1].completed = 5;
  r.replicas[0].kv_migrate_wire_bytes = 600;
  r.replicas[1].steal_wire_bytes = 400;
  r.fabric_bytes = 1000;
  EXPECT_TRUE(check_invariants(r).empty());
  r.fabric_bytes = 999;
  EXPECT_EQ(check_invariants(r).size(), 1u);
}

TEST(Verify, RejectsRepDigestMismatch) {
  const serve::FleetResult r = healthy();
  const std::string digest = sim_digest(r, {});
  EXPECT_TRUE(verify_rep(r, digest, "").empty());
  EXPECT_TRUE(verify_rep(r, digest, digest).empty());
  serve::FleetResult moved = r;
  moved.fleet.ttft_ms.p99 += 1e-9;  // any simulated output moves the digest
  const std::string other = sim_digest(moved, {});
  EXPECT_NE(other, digest);
  EXPECT_EQ(verify_rep(moved, other, digest).size(), 1u);
}

/// Real runs through the verifier: a symmetric and a disaggregated fleet
/// pass every invariant, and a second run reproduces the digest.
TEST(Verify, RealRunsVerifyCleanAndRepeat) {
  serve::ServingConfig base;
  base.arch = core::ArchConfig::two_node();
  base.model = model::gpt2_medium();
  base.traffic.num_requests = 40;
  base.traffic.arrival_rate_per_s = 4.0;
  serve::FleetConfig symmetric = serve::FleetConfig::homogeneous(
      base, 2, serve::BalancerPolicy::kJoinShortestQueue);
  serve::FleetConfig disagg = symmetric;
  disagg.roles = {serve::ReplicaRole::kPrefill, serve::ReplicaRole::kDecode};
  for (const serve::FleetConfig& cfg : {symmetric, disagg}) {
    const serve::FleetSim sim(cfg);
    const serve::FleetResult a = sim.run();
    const serve::FleetResult b = sim.run();
    EXPECT_TRUE(check_invariants(a).empty());
    const std::string digest = sim_digest(a, {});
    EXPECT_TRUE(verify_rep(b, sim_digest(b, {}), digest).empty());
  }
}

/// The observer tiles every replica's timeline, so the category shares of
/// replica-time must sum to one.
TEST(Verify, ObservedSharesTileReplicaTime) {
  serve::ServingConfig base;
  base.traffic.num_requests = 40;
  base.traffic.arrival_rate_per_s = 4.0;
  const serve::FleetConfig cfg = serve::FleetConfig::homogeneous(
      base, 2, serve::BalancerPolicy::kJoinShortestQueue);
  serve::Observer observer(2, base.arch.frequency_hz);
  serve::FleetSim(cfg).run(&observer);
  const ObserveStats stats = observe_stats(observer);
  EXPECT_EQ(stats.events, observer.events().size());
  EXPECT_GT(stats.events, 0u);
  double total = 0;
  for (const double s : stats.share) total += s;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Statistics, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(data, n=4) on the same inputs.
  const Quartiles a = quartiles({4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 1.25);
  EXPECT_DOUBLE_EQ(a.median, 2.5);
  EXPECT_DOUBLE_EQ(a.q3, 3.75);
  const Quartiles b = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(b.q1, 2.75);
  EXPECT_DOUBLE_EQ(b.median, 5.5);
  EXPECT_DOUBLE_EQ(b.q3, 8.25);
  const Quartiles c = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(c.q1, 0.5);
  EXPECT_DOUBLE_EQ(c.median, 2.0);
  EXPECT_DOUBLE_EQ(c.q3, 3.5);
  const Quartiles d = quartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(d.q1, 1.0);
  EXPECT_DOUBLE_EQ(d.median, 2.0);
  EXPECT_DOUBLE_EQ(d.q3, 3.0);
  EXPECT_DOUBLE_EQ(quartiles({7}).q3, 7);
  EXPECT_DOUBLE_EQ(quartiles({}).median, 0);
}

TEST(Json, WritesNestedObjectsWithExactNumbers) {
  JsonWriter w;
  w.begin_object()
      .key("name").value("a\"b\\c\n")
      .key("ok").value(true)
      .key("n").value(std::uint64_t{18446744073709551615ULL})
      .key("metrics").begin_object()
      .key("x").begin_object().key("value").value(0.1).key("unit").value("s")
      .end_object()
      .key("nan").value(std::nan(""))
      .end_object()
      .key("empty").begin_object().end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"name\": \"a\\\"b\\\\c\\n\", \"ok\": true, "
            "\"n\": 18446744073709551615, \"metrics\": {\"x\": {\"value\": "
            "0.1, \"unit\": \"s\"}, \"nan\": null}, \"empty\": {}}");
  JsonWriter digits;
  digits.value(1.0 / 3.0);
  EXPECT_EQ(digits.str(), "0.3333333333333333");
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer("test");
  {
    Timed outer(&tracer, "outer");
    { Timed inner(&tracer, "inner"); }
    { Timed inner(&tracer, "inner"); }
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  const double outer = tracer.spans()[0].end_s - tracer.spans()[0].start_s;
  double total = 0;
  for (std::size_t i = 0; i < 3; ++i) total += tracer.self_seconds(i);
  EXPECT_NEAR(total, outer, 1e-12);
  EXPECT_EQ(tracer.self_seconds_of("inner").size(), 2u);
  std::ostringstream os;
  tracer.write_chrome(os);
  EXPECT_NE(os.str().find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(os.str().find("\"run\": \"test\""), std::string::npos);
}

TEST(Tracer, TimedWithoutTracerStillMeasures) {
  Timed t(nullptr, "untraced");
  EXPECT_GE(t.stop(), 0.0);
}

/// Every `"name": "..."` inside BENCHMARK.json's `section` array.
std::vector<std::string> names_in(const std::string& json,
                                  const std::string& section) {
  const std::size_t at = json.find("\"" + section + "\"");
  EXPECT_NE(at, std::string::npos) << section;
  if (at == std::string::npos) return {};
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(BenchmarkJson, NamesAndCountsWithinLimits) {
  std::ifstream in(BENCHMARK_JSON);
  ASSERT_TRUE(in) << BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  const std::vector<std::string> wl = names_in(json, "workloads");
  const std::vector<std::string> e2e = names_in(json, "end_to_end");
  const std::vector<std::string> layer = names_in(json, "per_layer");
  EXPECT_GE(e2e.size(), 1u);
  EXPECT_LE(e2e.size(), 16u);
  EXPECT_GE(layer.size(), 1u);
  EXPECT_LE(layer.size(), 128u);
  const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> seen;
  for (const auto* group : {&wl, &e2e, &layer}) {
    for (const std::string& n : *group) {
      EXPECT_TRUE(std::regex_match(n, valid)) << n;
      EXPECT_TRUE(seen.insert(n).second) << "duplicate name " << n;
    }
  }
  EXPECT_TRUE(seen.count("setup_s"));
  std::vector<std::string> harness;
  for (const Workload& w : workloads()) harness.emplace_back(w.name);
  EXPECT_EQ(wl, harness);
}

}  // namespace
}  // namespace looplynx::suite
