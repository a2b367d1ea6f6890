// Tests for Mutex / CountdownLatch / Signal primitives.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace looplynx::sim {
namespace {

Task hold_mutex(Engine& eng, Mutex& mu, int id, Cycles hold,
                std::vector<std::pair<int, Cycles>>& log) {
  co_await mu.lock();
  log.emplace_back(id, eng.now());
  co_await eng.delay(hold);
  mu.unlock();
}

TEST(MutexTest, ProvidesExclusionAndFifoOrder) {
  Engine eng;
  Mutex mu(eng);
  std::vector<std::pair<int, Cycles>> log;
  for (int i = 0; i < 4; ++i) eng.spawn(hold_mutex(eng, mu, i, 10, log));
  eng.run();
  ASSERT_EQ(log.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(log[i].first, i);  // arrival order preserved
    EXPECT_EQ(log[i].second, static_cast<Cycles>(10 * i));
  }
  EXPECT_FALSE(mu.locked());
}

TEST(MutexTest, UncontendedLockIsImmediate) {
  Engine eng;
  Mutex mu(eng);
  Cycles acquired_at = 99;
  struct P {
    static Task run(Engine& eng, Mutex& mu, Cycles& at) {
      co_await eng.delay(5);
      co_await mu.lock();
      at = eng.now();
      mu.unlock();
    }
  };
  eng.spawn(P::run(eng, mu, acquired_at));
  eng.run();
  EXPECT_EQ(acquired_at, 5u);
}

TEST(MutexTest, TryLockTakesOnlyAFreeLockAndNeverQueues) {
  Engine eng;
  Mutex mu(eng);
  EXPECT_TRUE(mu.try_lock());
  EXPECT_TRUE(mu.locked());
  EXPECT_FALSE(mu.try_lock());  // held: refused, nothing queued
  std::vector<std::pair<int, Cycles>> log;
  eng.spawn(hold_mutex(eng, mu, 1, 10, log));
  struct Releaser {
    static Task run(Engine& eng, Mutex& mu, bool& barged) {
      co_await eng.delay(7);
      mu.unlock();  // hands the lock to the queued waiter
      barged = mu.try_lock();
    }
  };
  bool barged = true;
  eng.spawn(Releaser::run(eng, mu, barged));
  eng.run();
  EXPECT_FALSE(barged);  // a handed-off lock is not free for try_lock
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<int, Cycles>{1, 7}));
  EXPECT_FALSE(mu.locked());
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  EXPECT_FALSE(mu.locked());
}

TEST(MutexTest, HandoffPreventsBarging) {
  Engine eng;
  Mutex mu(eng);
  std::vector<int> order;
  // P0 takes the lock; P1 queues at t=1; P2 tries at t=10 right when P0
  // releases. P1 must win (direct hand-off), then P2.
  struct Holder {
    static Task run(Engine& eng, Mutex& mu, std::vector<int>& order) {
      co_await mu.lock();
      order.push_back(0);
      co_await eng.delay(10);
      mu.unlock();
    }
  };
  struct Waiter {
    static Task run(Engine& eng, Mutex& mu, int id, Cycles arrive,
                    std::vector<int>& order) {
      co_await eng.delay(arrive);
      co_await mu.lock();
      order.push_back(id);
      mu.unlock();
    }
  };
  eng.spawn(Holder::run(eng, mu, order));
  eng.spawn(Waiter::run(eng, mu, 1, 1, order));
  eng.spawn(Waiter::run(eng, mu, 2, 10, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

Task finish_at(Engine& eng, Cycles at, std::vector<Cycles>& done) {
  co_await eng.delay(at);
  done.push_back(eng.now());
}

Task join(Engine& eng, CountdownLatch& latch, int id,
          std::vector<std::pair<int, Cycles>>& resumed) {
  co_await latch.wait();
  resumed.emplace_back(id, eng.now());
}

TEST(CountdownLatchTest, JoinerResumesAtLastChildsFinish) {
  Engine eng;
  CountdownLatch latch(eng, 3);
  std::vector<Cycles> done;
  std::vector<std::pair<int, Cycles>> resumed;
  eng.spawn(join(eng, latch, 0, resumed));
  for (Cycles at : {12u, 40u, 7u}) {
    eng.spawn(run_then_count_down(finish_at(eng, at, done), latch));
  }
  eng.run();
  EXPECT_EQ(done, (std::vector<Cycles>{7, 12, 40}));
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].second, 40u);
  EXPECT_EQ(latch.remaining(), 0u);
}

TEST(CountdownLatchTest, ZeroCountDoesNotSuspend) {
  Engine eng;
  CountdownLatch latch(eng, 0);
  std::vector<std::pair<int, Cycles>> resumed;
  struct Joiner {
    static Task run(Engine& eng, CountdownLatch& latch,
                    std::vector<std::pair<int, Cycles>>& resumed) {
      co_await eng.delay(9);
      co_await latch.wait();
      resumed.emplace_back(0, eng.now());
    }
  };
  eng.spawn(Joiner::run(eng, latch, resumed));
  eng.run();
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].second, 9u);
}

TEST(CountdownLatchTest, SecondWaiterIsAnError) {
  Engine eng;
  CountdownLatch latch(eng, 1);
  std::vector<std::pair<int, Cycles>> resumed;
  eng.spawn(join(eng, latch, 0, resumed));
  eng.spawn(join(eng, latch, 1, resumed));
  EXPECT_THROW(eng.run(), std::logic_error);
  EXPECT_TRUE(resumed.empty());
}

TEST(SignalTest, WaitersReleaseOnSet) {
  Engine eng;
  Signal sig(eng);
  std::vector<Cycles> times;
  struct Waiter {
    static Task run(Engine& eng, Signal& sig, std::vector<Cycles>& times) {
      co_await sig.wait();
      times.push_back(eng.now());
    }
  };
  struct Setter {
    static Task run(Engine& eng, Signal& sig) {
      co_await eng.delay(33);
      sig.set();
    }
  };
  eng.spawn(Waiter::run(eng, sig, times));
  eng.spawn(Waiter::run(eng, sig, times));
  eng.spawn(Setter::run(eng, sig));
  eng.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 33u);
  EXPECT_EQ(times[1], 33u);
}

TEST(SignalTest, WaitAfterSetCompletesImmediately) {
  Engine eng;
  Signal sig(eng);
  sig.set();
  Cycles at = 99;
  struct Waiter {
    static Task run(Engine& eng, Signal& sig, Cycles& at) {
      co_await eng.delay(7);
      co_await sig.wait();
      at = eng.now();
    }
  };
  eng.spawn(Waiter::run(eng, sig, at));
  eng.run();
  EXPECT_EQ(at, 7u);
}

TEST(SignalTest, ResetReArms) {
  Engine eng;
  Signal sig(eng);
  sig.set();
  EXPECT_TRUE(sig.is_set());
  sig.reset();
  EXPECT_FALSE(sig.is_set());
}

}  // namespace
}  // namespace looplynx::sim
