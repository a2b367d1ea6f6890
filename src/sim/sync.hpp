// Synchronization primitives for simulated processes: Mutex (exclusive
// hardware resources such as an HBM channel port), Semaphore (pooled
// resources), Barrier (multi-node synchronization points) and Signal
// (one-shot broadcast events).
//
// All primitives use direct hand-off: ownership passes to the oldest waiter
// at release time, so arrival order — not wake-up scheduling — decides who
// acquires next. This keeps simulations deterministic.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <vector>

#include "sim/engine.hpp"

namespace looplynx::sim {

/// Exclusive-ownership lock.
class Mutex {
 public:
  explicit Mutex(Engine& engine) : engine_(&engine) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  struct LockAwaiter {
    Mutex* mutex;
    bool await_ready() {
      if (!mutex->locked_) {
        mutex->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      mutex->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await mutex.lock(); ... mutex.unlock();
  LockAwaiter lock() { return LockAwaiter{this}; }

  void unlock() {
    assert(locked_ && "unlock of an unlocked Mutex");
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    // Hand the lock directly to the oldest waiter (stays locked).
    std::coroutine_handle<> next = waiters_.front();
    waiters_.pop_front();
    engine_->schedule(0, next);
  }

  bool locked() const noexcept { return locked_; }
  std::size_t waiters() const noexcept { return waiters_.size(); }

 private:
  Engine* engine_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial)
      : engine_(&engine), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct AcquireAwaiter {
    Semaphore* sem;
    bool await_ready() {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter acquire() { return AcquireAwaiter{this}; }

  void release() {
    if (!waiters_.empty()) {
      // The released unit passes directly to the oldest waiter.
      std::coroutine_handle<> next = waiters_.front();
      waiters_.pop_front();
      engine_->schedule(0, next);
      return;
    }
    ++count_;
  }

  std::size_t available() const noexcept { return count_; }
  std::size_t waiters() const noexcept { return waiters_.size(); }

 private:
  Engine* engine_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Reusable barrier for a fixed participant count (generation-based, so it
/// can be reused round after round — e.g. ring synchronization rounds).
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t participants)
      : engine_(&engine), participants_(participants) {
    assert(participants_ >= 1);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  struct WaitAwaiter {
    Barrier* barrier;
    bool await_ready() {
      if (barrier->arrived_ + 1 == barrier->participants_) {
        // Last arrival releases everyone and passes through.
        barrier->arrived_ = 0;
        for (std::coroutine_handle<> h : barrier->waiting_) {
          barrier->engine_->schedule(0, h);
        }
        barrier->waiting_.clear();
        ++barrier->generation_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++barrier->arrived_;
      barrier->waiting_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await barrier.arrive_and_wait();
  WaitAwaiter arrive_and_wait() { return WaitAwaiter{this}; }

  std::uint64_t generation() const noexcept { return generation_; }

 private:
  Engine* engine_;
  std::size_t participants_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiting_;
};

/// Countdown latch for fork/join of concurrently spawned sub-processes:
/// spawn N tasks that each call count_down() when finished; the joiner
/// co_awaits wait(). Single-use.
///
/// The first waiter parks in an inline slot — the overwhelmingly common
/// single-joiner case (the parent process awaiting its forked children)
/// then never touches the heap. Extra waiters overflow into a
/// vector; release order stays arrival order either way.
class CountdownLatch {
 public:
  CountdownLatch(Engine& engine, std::size_t count)
      : engine_(&engine), remaining_(count) {}
  CountdownLatch(const CountdownLatch&) = delete;
  CountdownLatch& operator=(const CountdownLatch&) = delete;

  void count_down() {
    assert(remaining_ > 0 && "count_down past zero");
    if (--remaining_ == 0) {
      if (first_waiter_) {
        engine_->schedule(0, first_waiter_);
        first_waiter_ = nullptr;
      }
      for (std::coroutine_handle<> h : overflow_waiters_) {
        engine_->schedule(0, h);
      }
      overflow_waiters_.clear();
    }
  }

  struct WaitAwaiter {
    CountdownLatch* latch;
    bool await_ready() const noexcept { return latch->remaining_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!latch->first_waiter_) {
        latch->first_waiter_ = h;
      } else {
        latch->overflow_waiters_.push_back(h);
      }
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{this}; }
  std::size_t remaining() const noexcept { return remaining_; }

 private:
  Engine* engine_;
  std::size_t remaining_;
  std::coroutine_handle<> first_waiter_ = nullptr;
  std::vector<std::coroutine_handle<>> overflow_waiters_;
};

/// Runs `task` then counts down `latch` — the fork half of fork/join.
/// Spawn the result as an engine root.
inline Task run_then_count_down(Task task, CountdownLatch& latch) {
  co_await task;
  latch.count_down();
}

/// One-shot broadcast event. wait() suspends until set() is called; waits
/// after set() complete immediately. reset() re-arms the signal.
///
/// Waiters are *scheduled*, never resumed synchronously: set() enqueues
/// each waiter through the engine's event queue, so the object a waiter was
/// parked on may be destroyed as soon as set() returns (the serve arena
/// recycles request slots on exactly this guarantee). The first waiter
/// parks inline — a request's done signal has at most one waiter (its
/// closed-loop client), so steady-state request recycling never touches
/// the heap; extra waiters
/// overflow into a vector, and release order stays arrival order.
class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(&engine) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  struct WaitAwaiter {
    Signal* signal;
    bool await_ready() const noexcept { return signal->set_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!signal->first_waiter_) {
        signal->first_waiter_ = h;
      } else {
        signal->overflow_waiters_.push_back(h);
      }
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{this}; }

  void set() {
    if (set_) return;
    set_ = true;
    if (first_waiter_) {
      engine_->schedule(0, first_waiter_);
      first_waiter_ = nullptr;
    }
    for (std::coroutine_handle<> h : overflow_waiters_) {
      engine_->schedule(0, h);
    }
    overflow_waiters_.clear();
  }

  void reset() noexcept { set_ = false; }
  bool is_set() const noexcept { return set_; }

 private:
  Engine* engine_;
  bool set_ = false;
  std::coroutine_handle<> first_waiter_ = nullptr;
  std::vector<std::coroutine_handle<>> overflow_waiters_;
};

}  // namespace looplynx::sim
