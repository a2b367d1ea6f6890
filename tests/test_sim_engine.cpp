// Unit tests for the discrete-event engine and coroutine Task plumbing.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace looplynx::sim {
namespace {

Task delay_then_record(Engine& eng, Cycles d, std::vector<Cycles>& log) {
  co_await eng.delay(d);
  log.push_back(eng.now());
}

TEST(EngineTest, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(EngineTest, SingleDelayAdvancesClock) {
  Engine eng;
  std::vector<Cycles> log;
  eng.spawn(delay_then_record(eng, 42, log));
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 42u);
  EXPECT_EQ(eng.now(), 42u);
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<Cycles> log;
  eng.spawn(delay_then_record(eng, 30, log));
  eng.spawn(delay_then_record(eng, 10, log));
  eng.spawn(delay_then_record(eng, 20, log));
  eng.run();
  EXPECT_EQ(log, (std::vector<Cycles>{10, 20, 30}));
}

Task record_id(Engine& eng, int id, std::vector<int>& order) {
  co_await eng.delay(5);
  order.push_back(id);
}

TEST(EngineTest, SameTimeEventsFireInSpawnOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) eng.spawn(record_id(eng, i, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

Task sequential_delays(Engine& eng, std::vector<Cycles>& log) {
  co_await eng.delay(10);
  log.push_back(eng.now());
  co_await eng.delay(0);  // yield: same cycle
  log.push_back(eng.now());
  co_await eng.delay(7);
  log.push_back(eng.now());
}

TEST(EngineTest, DelaysAccumulate) {
  Engine eng;
  std::vector<Cycles> log;
  eng.spawn(sequential_delays(eng, log));
  eng.run();
  EXPECT_EQ(log, (std::vector<Cycles>{10, 10, 17}));
}

Task child_task(Engine& eng, std::vector<std::string>& log) {
  log.push_back("child-start");
  co_await eng.delay(3);
  log.push_back("child-end");
}

Task parent_task(Engine& eng, std::vector<std::string>& log) {
  log.push_back("parent-start");
  co_await child_task(eng, log);
  log.push_back("parent-after-child");
  co_await eng.delay(2);
  log.push_back("parent-end");
}

TEST(EngineTest, NestedTaskRunsInlineAndResumesParent) {
  Engine eng;
  std::vector<std::string> log;
  const auto id = eng.spawn(parent_task(eng, log));
  eng.run();
  EXPECT_TRUE(eng.root_done(id));
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-after-child",
                                           "parent-end"}));
  EXPECT_EQ(eng.now(), 5u);
}

Task deep_nest(Engine& eng, int depth, Cycles each) {
  if (depth == 0) {
    co_await eng.delay(each);
    co_return;
  }
  co_await deep_nest(eng, depth - 1, each);
}

TEST(EngineTest, DeeplyNestedTasksComplete) {
  Engine eng;
  const auto id = eng.spawn(deep_nest(eng, 64, 9));
  eng.run();
  EXPECT_TRUE(eng.root_done(id));
  EXPECT_EQ(eng.now(), 9u);
}

Task throwing_task(Engine& eng) {
  co_await eng.delay(1);
  throw std::runtime_error("kernel fault");
}

TEST(EngineTest, RootExceptionPropagatesFromRun) {
  Engine eng;
  eng.spawn(throwing_task(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

Task throwing_child(Engine& eng) {
  co_await eng.delay(1);
  throw std::logic_error("child fault");
}

Task catching_parent(Engine& eng, bool& caught) {
  try {
    co_await throwing_child(eng);
  } catch (const std::logic_error&) {
    caught = true;
  }
}

TEST(EngineTest, ChildExceptionCatchableInParent) {
  Engine eng;
  bool caught = false;
  eng.spawn(catching_parent(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, RunUntilStopsAtRequestedTime) {
  Engine eng;
  std::vector<Cycles> log;
  eng.spawn(delay_then_record(eng, 10, log));
  eng.spawn(delay_then_record(eng, 100, log));
  const bool empty = eng.run_until(50);
  EXPECT_FALSE(empty);
  EXPECT_EQ(eng.now(), 50u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 10u);
  eng.run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(EngineTest, MaxEventsBoundsRunawayProcesses) {
  Engine eng;
  struct Looper {
    static Task run(Engine& eng) {
      for (;;) co_await eng.delay(1);
    }
  };
  eng.spawn(Looper::run(eng));
  const auto processed = eng.run(/*max_events=*/1000);
  EXPECT_EQ(processed, 1000u);
}

Task spawner(Engine& eng, std::vector<Cycles>& log) {
  co_await eng.delay(5);
  eng.spawn(delay_then_record(eng, 3, log));
  co_await eng.delay(10);
  log.push_back(eng.now());
}

TEST(EngineTest, SpawnDuringRunSchedulesAtCurrentTime) {
  Engine eng;
  std::vector<Cycles> log;
  eng.spawn(spawner(eng, log));
  eng.run();
  // Spawned child starts at t=5 and finishes its 3-cycle delay at t=8; the
  // parent records at t=15.
  EXPECT_EQ(log, (std::vector<Cycles>{8, 15}));
}

TEST(EngineTest, DestructionWithSuspendedProcessesIsClean) {
  // Processes still blocked at engine teardown must not leak or crash
  // (checked by ASAN builds; here we just exercise the path).
  Engine eng;
  struct Blocked {
    static Task run(Engine& eng) {
      co_await eng.delay(1'000'000);  // never reached by run_until below
    }
  };
  eng.spawn(Blocked::run(eng));
  eng.run_until(10);
  SUCCEED();
}

TEST(TaskTest, MoveTransfersOwnership) {
  Engine eng;
  std::vector<Cycles> log;
  Task t = delay_then_record(eng, 1, log);
  EXPECT_TRUE(t.valid());
  Task u = std::move(t);
  EXPECT_FALSE(t.valid());  // NOLINT(bugprone-use-after-move): intentional
  EXPECT_TRUE(u.valid());
  eng.spawn(std::move(u));
  eng.run();
  EXPECT_EQ(log.size(), 1u);
}

TEST(EngineTest, EventCountsAreTracked) {
  Engine eng;
  std::vector<Cycles> log;
  eng.spawn(delay_then_record(eng, 1, log));
  eng.spawn(delay_then_record(eng, 2, log));
  eng.run();
  // Each root: one start event + one delay-resume event.
  EXPECT_EQ(eng.events_processed(), 4u);
}

// ---- sim::Trace span accounting (the Fig. 5 breakdown machinery) ----

TEST(TraceTest, CategoryTotalsAccumulate) {
  Trace trace;
  trace.add("attn", 0, 100);
  trace.add("attn", 100, 150);
  trace.add("mlp", 150, 400);
  trace.add_cycles("host", 10);
  EXPECT_EQ(trace.total("attn"), 150u);
  EXPECT_EQ(trace.total("mlp"), 250u);
  EXPECT_EQ(trace.total("host"), 10u);
  EXPECT_EQ(trace.total("missing"), 0u);
  EXPECT_EQ(trace.grand_total(), 410u);
}

TEST(TraceTest, BackwardsSpanClampsToZeroWidth) {
  Trace trace;
  trace.add("x", 50, 10);  // end < begin must not underflow the total
  EXPECT_EQ(trace.total("x"), 0u);
}

TEST(TraceTest, KeepSpansRetainsSpanListAndDefaultDoesNot) {
  Trace bare;
  bare.add("a", 0, 5);
  EXPECT_TRUE(bare.spans().empty());  // totals-only mode

  Trace kept(/*keep_spans=*/true);
  kept.add("a", 0, 5);
  kept.add("b", 5, 9);
  ASSERT_EQ(kept.spans().size(), 2u);
  EXPECT_EQ(kept.spans()[1].category, "b");
  EXPECT_EQ(kept.spans()[1].begin, 5u);
  EXPECT_EQ(kept.spans()[1].end, 9u);
}

TEST(TraceTest, AdjacentSpansTileTheTimeline) {
  // The serve-layer observer's tiling identity rests on this: category
  // totals of back-to-back spans sum exactly to the covered interval.
  Trace trace(/*keep_spans=*/true);
  const Cycles edges[] = {0, 7, 7, 19, 64, 101};
  const char* cats[] = {"a", "b", "c", "a", "b"};
  for (std::size_t i = 0; i + 1 < std::size(edges); ++i) {
    trace.add(cats[i], edges[i], edges[i + 1]);
  }
  EXPECT_EQ(trace.grand_total(), 101u);
  EXPECT_EQ(trace.total("a") + trace.total("b") + trace.total("c"), 101u);
}

TEST(TraceTest, ChromeExportEmitsIntegerCycleTimestamps) {
  const auto export_two = [] {
    std::ostringstream os;
    ChromeTraceWriter writer(os);
    writer.complete("prefill", "trace", /*pid=*/0, /*tid=*/0, 0, 40);
    writer.complete("decode", "trace", /*pid=*/0, /*tid=*/0, 40, 100);
    writer.finish();
    return os.str();
  };
  const std::string json = export_two();
  // Valid trace-event envelope with the cycle-clock declaration...
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"simulated-cycles\""), std::string::npos);
  // ...and one complete event per span, timestamps as raw cycle counts.
  EXPECT_NE(json.find("\"name\":\"prefill\""), std::string::npos);
  EXPECT_NE(
      json.find("\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":40,\"dur\":60"),
      std::string::npos);
  // Byte-determinism: a second export is identical.
  EXPECT_EQ(json, export_two());
}

TEST(TraceTest, ChromeTraceWriterEscapesJsonStrings) {
  EXPECT_EQ(ChromeTraceWriter::json_escape("a\"b\\c\nd"),
            "a\\\"b\\\\c\\u000ad");
}

}  // namespace
}  // namespace looplynx::sim
