// Unit tests for the discrete-event engine and coroutine Task plumbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
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
  EXPECT_EQ(eng.run(), 0u);  // nothing scheduled
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
  eng.spawn(parent_task(eng, log));
  eng.run();
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
  eng.spawn(deep_nest(eng, 64, 9));
  eng.run();
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

struct CallLog {
  Engine* engine;
  std::vector<std::pair<Cycles, int>> fired;
};

void log_call(void* log, void* id) {
  auto* l = static_cast<CallLog*>(log);
  l->fired.emplace_back(l->engine->now(), *static_cast<int*>(id));
}

Task register_calls(Engine& eng, CallLog& log, int (&ids)[4]) {
  co_await eng.delay(5);
  eng.schedule_call(&log_call, &log, &ids[0]);
  eng.schedule_call(&log_call, &log, &ids[1]);
  co_await eng.delay(0);  // queued behind both callbacks
  log_call(&log, &ids[2]);
  co_await eng.delay(3);
  eng.schedule_call(&log_call, &log, &ids[3]);
}

TEST(EngineTest, CallbacksFireAtTheirCycleInRegistrationOrder) {
  Engine eng;
  CallLog log{&eng, {}};
  int ids[4] = {0, 1, 2, 3};
  eng.spawn(register_calls(eng, log, ids));
  eng.run();
  EXPECT_EQ(log.fired, (std::vector<std::pair<Cycles, int>>{
                           {5, 0}, {5, 1}, {5, 2}, {8, 3}}));
}

// ---- Timer wakes and the (time, stamp, seq) order ----

/// Sleeps on `timer` (armed by the caller or a peer) and logs each wake.
Task sleep_on(Engine& eng, Timer& timer, std::vector<Cycles>& log) {
  co_await eng.wait(timer);
  log.push_back(eng.now());
}

/// Re-arms `timer` at `at` after waiting `after` cycles.
Task rearm(Engine& eng, Timer& timer, Cycles after, Cycles at) {
  co_await eng.delay(after);
  eng.arm(timer, at, eng.now());
}

TEST(EngineTest, SupersededTimerWakeNeverResumes) {
  // Armed at 100, moved to 50 at cycle 30: the sleeper wakes once, at
  // 50, and the stale wake at 100 neither resumes it nor moves the clock.
  for (const Cycles moved_to : {Cycles{50}, Cycles{140}}) {
    SCOPED_TRACE(moved_to);
    Engine eng;
    Timer timer;
    std::vector<Cycles> log;
    eng.arm(timer, 100, 0);
    eng.spawn(sleep_on(eng, timer, log));
    eng.spawn(rearm(eng, timer, 30, moved_to));
    // Two starts, the re-arm's delay and one timer wake; the stale wake is
    // not an event.
    EXPECT_EQ(eng.run(), 4u);
    EXPECT_EQ(log, std::vector<Cycles>{moved_to});
    EXPECT_EQ(eng.now(), moved_to);
  }
}

Task record_after(Engine& eng, Cycles d, int id, std::vector<int>& order) {
  co_await eng.delay(d);
  order.push_back(id);
}

Task stagger(Engine& eng, Cycles wait, Cycles d, int id,
             std::vector<int>& order) {
  co_await eng.delay(wait);
  co_await eng.delay(d);
  order.push_back(id);
}

TEST(EngineTest, OrdinaryEventsKeepFifoOrderUnderTheStampKey) {
  // Every event below is due at cycle 10, scheduled at cycles 0, 4 and 7
  // in interleaved spawn order: they fire in scheduling order, exactly as
  // under a bare (time, seq) key.
  Engine eng;
  std::vector<int> order;
  eng.spawn(stagger(eng, 7, 3, 5, order));
  eng.spawn(record_after(eng, 10, 0, order));
  eng.spawn(stagger(eng, 4, 6, 3, order));
  eng.spawn(record_after(eng, 10, 1, order));
  eng.spawn(stagger(eng, 4, 6, 4, order));
  eng.spawn(stagger(eng, 0, 10, 2, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

Task arm_stamped(Engine& eng, Timer& timer, Cycles after, Cycles at,
                 Cycles stamp) {
  co_await eng.delay(after);
  eng.arm(timer, at, stamp);
}

TEST(EngineTest, StampedTimerWakeSortsAsIfScheduledAtItsStamp) {
  // Armed at cycle 6 for cycle 10 with stamp 3: it fires after the events
  // due at 10 that were scheduled at cycles 0 and 3, and before the ones
  // scheduled at 4 and 6.
  Engine eng;
  Timer timer;
  std::vector<int> order;
  struct Sleeper {
    static Task run(Engine& eng, Timer& timer, std::vector<int>& order) {
      co_await eng.wait(timer);
      order.push_back(99);
    }
  };
  eng.spawn(record_after(eng, 10, 0, order));
  eng.spawn(stagger(eng, 3, 7, 1, order));
  eng.spawn(stagger(eng, 4, 6, 2, order));
  eng.spawn(Sleeper::run(eng, timer, order));
  eng.spawn(arm_stamped(eng, timer, 6, 10, 3));
  eng.spawn(stagger(eng, 6, 4, 3, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 99, 2, 3}));
}

TEST(EngineTest, TimerStampMayLieAfterTheArmingCycle) {
  // Armed at cycle 1 for cycle 10 with stamp 3: it fires among the events
  // scheduled at cycle 3, ahead of them (its sequence number is older).
  Engine eng;
  Timer timer;
  std::vector<int> order;
  struct Sleeper {
    static Task run(Engine& eng, Timer& timer, std::vector<int>& order) {
      co_await eng.wait(timer);
      order.push_back(99);
    }
  };
  eng.spawn(record_after(eng, 10, 0, order));
  eng.spawn(stagger(eng, 3, 7, 1, order));
  eng.spawn(stagger(eng, 4, 6, 2, order));
  eng.spawn(Sleeper::run(eng, timer, order));
  eng.spawn(arm_stamped(eng, timer, 1, 10, 3));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 99, 1, 2}));
}

Task log_key(Engine& eng, Cycles d, std::vector<EventKey>& keys) {
  co_await eng.delay(d);
  keys.push_back(eng.current());
}

TEST(EngineTest, CurrentReportsTheRunningEventsKey) {
  Engine eng;
  std::vector<EventKey> keys;
  eng.spawn(log_key(eng, 10, keys));
  eng.run();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].time, 10u);
  EXPECT_EQ(keys[0].stamp, 0u);  // scheduled by the start event at 0
  EXPECT_TRUE((EventKey{10, 0, 0} < keys[0]));
  EXPECT_TRUE((keys[0] < EventKey{10, 1, 0}));
  EXPECT_TRUE((keys[0] < EventKey{11, 0, 0}));
}

TEST(EngineTest, DestructionWithSuspendedProcessesIsClean) {
  // Processes still blocked at engine teardown must not leak or crash
  // (checked by ASAN builds; here we just exercise the path). The parked
  // process does not keep run() alive: it returns once the queue drains.
  Engine eng;
  Signal never(eng);
  bool resumed = false;
  struct Blocked {
    static Task run(Engine& eng, Signal& signal, bool& resumed) {
      co_await eng.delay(10);
      co_await signal.wait();  // never set
      resumed = true;
    }
  };
  eng.spawn(Blocked::run(eng, never, resumed));
  EXPECT_EQ(eng.run(), 2u);  // start + the delay's resume
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_FALSE(resumed);
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
  // Each root: one start event + one delay-resume event.
  EXPECT_EQ(eng.run(), 4u);
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

TEST(TraceTest, AdjacentSpansTileTheTimeline) {
  // Fig. 5's breakdown rests on this: category totals of back-to-back
  // spans sum exactly to the covered interval.
  Trace trace;
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

constexpr char kTraceHead[] = "{\"traceEvents\":[";
constexpr char kTraceTail[] =
    "],\"otherData\":{\"clock\":\"simulated-cycles\","
    "\"timeUnit\":\"1 trace-us == 1 cycle\"}}\n";

/// The expected bytes of a document holding `events`, one per line.
std::string trace_document(const std::vector<std::string>& events) {
  std::string doc = kTraceHead;
  for (std::size_t i = 0; i < events.size(); ++i) {
    doc += i == 0 ? "\n" : ",\n";
    doc += events[i];
  }
  return doc + kTraceTail;
}

TEST(TraceTest, BufferedWriterFlushesEveryEventInOrder) {
  std::ostringstream os;
  std::vector<std::string> want;
  std::size_t bytes = 0;
  {
    ChromeTraceWriter writer(os);
    for (std::uint32_t i = 0; bytes < 4 * ChromeTraceWriter::kBufferBytes;
         ++i) {
      // Alternate small stamps with 20-digit ones near 2^64.
      const Cycles begin =
          i % 2 == 0 ? i : std::numeric_limits<Cycles>::max() - 7ull * i;
      const Cycles end = begin + i % 5;
      const std::string name = "span-" + std::to_string(i % 11);
      writer.complete(name, "breakdown", i % 3, i % 2, begin, end);
      want.push_back("{\"name\":\"" + name +
                     "\",\"cat\":\"breakdown\",\"ph\":\"X\",\"pid\":" +
                     std::to_string(i % 3) + ",\"tid\":" +
                     std::to_string(i % 2) + ",\"ts\":" +
                     std::to_string(begin) + ",\"dur\":" +
                     std::to_string(end - begin) + "}");
      bytes += want.back().size();
    }
    // Everything but the last partial buffer reached the stream already.
    EXPECT_GE(static_cast<std::size_t>(os.tellp()),
              3 * ChromeTraceWriter::kBufferBytes);
  }
  EXPECT_EQ(os.str(), trace_document(want));
}

TEST(TraceTest, BufferedWriterEscapesLikeJsonEscape) {
  const std::string quoted = "a\"b\\c\nd";
  std::string long_name(ChromeTraceWriter::kBufferBytes + 100, 'x');
  long_name[10] = '"';
  long_name[ChromeTraceWriter::kBufferBytes] = '\\';
  long_name.back() = '\n';
  const std::string long_plain(2 * ChromeTraceWriter::kBufferBytes, 'y');
  std::ostringstream os;
  {
    ChromeTraceWriter writer(os);
    writer.process_name(0, quoted);
    writer.process_name(1, long_name);
    writer.process_name(2, long_plain);
  }
  std::vector<std::string> want;
  for (const std::string& name : {quoted, long_name, long_plain}) {
    want.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                   std::to_string(want.size()) +
                   ",\"tid\":0,\"args\":{\"name\":\"" +
                   ChromeTraceWriter::json_escape(name) + "\"}}");
  }
  EXPECT_EQ(os.str(), trace_document(want));
}

}  // namespace
}  // namespace looplynx::sim
