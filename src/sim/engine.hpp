// Discrete-event simulation engine with a cycle-granular clock.
//
// The engine advances a single global clock (in accelerator cycles) and
// resumes coroutine processes in deterministic order: events at the same
// cycle fire in the order they were scheduled (FIFO tie-break on the cycle
// each was scheduled at, then a sequence number). This determinism is
// load-bearing — latency results must be bit-reproducible across runs so
// the benchmark harnesses regenerate the paper's tables exactly.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/task.hpp"

namespace looplynx::sim {

/// Simulated time in clock cycles of the accelerator's clock domain.
using Cycles = std::uint64_t;

/// An event's place in the engine's order: due cycle, then the cycle it
/// was scheduled at (its stamp), then the scheduling sequence number.
/// Sequence numbers rise with the clock, so for events scheduled the
/// ordinary way the stamp never reorders anything; a Timer wake may carry
/// another stamp, which places it among same-cycle events as if it had
/// been scheduled at that cycle.
struct EventKey {
  Cycles time = 0;
  Cycles stamp = 0;
  std::uint64_t seq = 0;

  bool operator<(const EventKey& o) const noexcept {
    if (time != o.time) return time < o.time;
    if (stamp != o.stamp) return stamp < o.stamp;
    return seq < o.seq;
  }
};

/// A coroutine's movable wake-up (Engine::arm, Engine::wait). Heap entries
/// cannot be removed, so arming a timer again supersedes its pending wake:
/// the timer keeps the sequence number of its live wake as a ticket, and a
/// popped wake whose number differs is dropped without resuming anything or
/// moving the clock. The timer must outlive every wake armed on it that
/// Engine::run may still pop.
class Timer {
 private:
  friend class Engine;
  static constexpr std::uint64_t kIdle = UINT64_MAX;  // no live wake
  std::coroutine_handle<> waiter_;
  std::uint64_t ticket_ = kIdle;
};

/// Thrown when a root process terminated with an exception; rethrown from
/// Engine::run with the original exception nested via std::rethrow.
class SimulationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  Cycles now() const noexcept { return now_; }

  /// Schedules `h` to resume `delay` cycles from now.
  void schedule(Cycles delay, std::coroutine_handle<> h) {
    schedule_at(now_ + delay, h);
  }

  /// Schedules `h` to resume at absolute time `time` (>= now).
  void schedule_at(Cycles time, std::coroutine_handle<> h);

  /// Schedules a plain callback at the current cycle — the
  /// allocation-free alternative to spawning a coroutine root for a
  /// one-shot event. The callback occupies exactly the queue position the
  /// spawned root's first resumption would have (same clock, same
  /// tie-break sequence number), so swapping one for the other cannot
  /// reorder any event. Callbacks therefore fire in the order they were
  /// registered. The serve layer enqueues every arriving request this
  /// way, without a per-request coroutine frame.
  void schedule_call(void (*fn)(void*, void*), void* a, void* b) {
    // The payload lives in a side table in registration order so Item
    // (copied on every heap sift) stays four words.
    calls_.push_back(CallItem{fn, a, b});
    queue_.push(Item{{now_, now_, seq_++}, 0});
  }

  /// Arms `timer` to wake its waiter at `time` (>= now), placed among the
  /// events due then as if scheduled at cycle `stamp` (<= time), which may
  /// lie before or after now. A wake already pending on `timer` is
  /// superseded. Returns the new wake's sequence number.
  std::uint64_t arm(Timer& timer, Cycles time, Cycles stamp);

  /// Key of the event being run: with now(), where it sits in the order.
  const EventKey& current() const noexcept { return current_; }

  /// Takes ownership of a root process and schedules it to start at the
  /// current time.
  void spawn(Task task);

  /// Runs until the event queue is empty (processes blocked on channels do
  /// not keep the simulation alive) or `max_events` events have run — the
  /// bound on a runaway process. Returns the number of events processed
  /// in this call. Rethrows the first root-process exception, if any.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Awaitable that suspends the current process for `delay` cycles.
  struct DelayAwaiter {
    Engine* engine;
    Cycles delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine->schedule(delay, h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await engine.delay(n): advance this process by n cycles.
  DelayAwaiter delay(Cycles cycles) { return DelayAwaiter{this, cycles}; }

  /// Awaitable that suspends the current process until `timer` fires. Arm
  /// the timer first; it may be re-armed while the process sleeps.
  struct TimerAwaiter {
    Timer* timer;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      timer->waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  /// co_await engine.wait(timer): sleep until the timer's live wake.
  TimerAwaiter wait(Timer& timer) { return TimerAwaiter{&timer}; }

 private:
  struct Item {
    EventKey key;
    /// What the event resumes: a coroutine frame address, a Timer* with
    /// the low bit set, or 0 for a schedule_call callback.
    std::uintptr_t target;
    bool operator>(const Item& other) const noexcept {
      return other.key < key;
    }
  };
  static constexpr std::uintptr_t kTimerTag = 1;

  /// Pending schedule_call payload, in registration order. Every
  /// callback is due at the cycle it was registered, so they fire in that
  /// order: the next one to fire is always at calls_head_.
  struct CallItem {
    void (*fn)(void*, void*);
    void* a;
    void* b;
  };

  /// Pops and runs the oldest pending callback.
  void dispatch_call();

  void check_root_failures();

  /// Frees frames of completed root processes so long simulations (which
  /// spawn one short-lived process per kernel invocation) stay bounded in
  /// memory. Finished roots are dropped from roots_, so each sweep visits
  /// only the roots alive at the last sweep plus those spawned since.
  void sweep_finished_roots();

  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue_;
  std::vector<CallItem> calls_;
  std::size_t calls_head_ = 0;  // first not-yet-fired entry in calls_
  std::vector<Task> roots_;     // roots not yet swept, in spawn order
  Cycles now_ = 0;
  EventKey current_;
  std::uint64_t seq_ = 0;
  std::uint64_t spawns_since_sweep_ = 0;
};

}  // namespace looplynx::sim
