// Synchronization primitives for simulated processes: Mutex (exclusive
// hardware resources such as an HBM channel port), CountdownLatch (the
// fork/join of a token step's concurrent stages and nodes) and Signal
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
#include <stdexcept>
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

  /// Takes the lock if it is free, without suspending; false if it is
  /// held (nothing is queued then).
  bool try_lock() {
    if (locked_) return false;
    locked_ = true;
    return true;
  }

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

 private:
  Engine* engine_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Countdown latch for fork/join of concurrently spawned sub-processes:
/// spawn N tasks that each call count_down() when finished; the joiner
/// co_awaits wait(). Single-use, single joiner: the parent process awaiting
/// its forked children parks in one handle slot and never touches the
/// heap. A second waiter is a bug and throws std::logic_error.
class CountdownLatch {
 public:
  CountdownLatch(Engine& engine, std::size_t count)
      : engine_(&engine), remaining_(count) {}
  CountdownLatch(const CountdownLatch&) = delete;
  CountdownLatch& operator=(const CountdownLatch&) = delete;

  void count_down() {
    assert(remaining_ > 0 && "count_down past zero");
    if (--remaining_ == 0 && waiter_) {
      engine_->schedule(0, waiter_);
      waiter_ = nullptr;
    }
  }

  struct WaitAwaiter {
    CountdownLatch* latch;
    bool await_ready() const noexcept { return latch->remaining_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      if (latch->waiter_) {
        throw std::logic_error("CountdownLatch: a second waiter");
      }
      latch->waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{this}; }
  std::size_t remaining() const noexcept { return remaining_; }

 private:
  Engine* engine_;
  std::size_t remaining_;
  std::coroutine_handle<> waiter_ = nullptr;
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
/// parked on may be destroyed as soon as set() returns. Waiters are
/// released in arrival order; set() clears the waiter vector but keeps its
/// capacity, so a re-armed signal stops allocating once it has grown.
class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(&engine) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  struct WaitAwaiter {
    Signal* signal;
    bool await_ready() const noexcept { return signal->set_; }
    void await_suspend(std::coroutine_handle<> h) {
      signal->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{this}; }

  void set() {
    if (set_) return;
    set_ = true;
    for (std::coroutine_handle<> h : waiters_) engine_->schedule(0, h);
    waiters_.clear();
  }

  void reset() noexcept { set_ = false; }
  bool is_set() const noexcept { return set_; }

 private:
  Engine* engine_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace looplynx::sim
