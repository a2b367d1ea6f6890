// Discrete-event simulation engine with a cycle-granular clock.
//
// The engine advances a single global clock (in accelerator cycles) and
// resumes coroutine processes in deterministic order: events at the same
// cycle fire in the order they were scheduled (FIFO tie-break on a sequence
// number). This determinism is load-bearing — latency results must be
// bit-reproducible across runs so the benchmark harnesses regenerate the
// paper's tables exactly.
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

  /// Number of events processed so far.
  std::uint64_t events_processed() const noexcept { return events_; }

  /// Schedules `h` to resume `delay` cycles from now.
  void schedule(Cycles delay, std::coroutine_handle<> h) {
    schedule_at(now_ + delay, h);
  }

  /// Schedules `h` to resume at absolute time `time` (>= now).
  void schedule_at(Cycles time, std::coroutine_handle<> h);

  /// Schedules a plain callback `delay` cycles from now — the
  /// allocation-free alternative to spawning a coroutine root for a
  /// one-shot event. The callback occupies exactly the queue position the
  /// spawned root's first resumption would have (same clock, same
  /// tie-break sequence number), so swapping one for the other cannot
  /// reorder any event. The serve layer enqueues every arriving request
  /// this way, without a per-request coroutine frame.
  void schedule_call(Cycles delay, void (*fn)(void*, void*), void* a,
                     void* b) {
    // The payload lives in a side table keyed by the event's sequence
    // number so Item (copied on every heap sift) stays three words.
    calls_.push_back(CallItem{seq_, fn, a, b});
    queue_.push(Item{now_ + delay, seq_++, {}});
  }

  /// Identifier for a spawned root process.
  using RootId = std::size_t;

  /// Takes ownership of a root process and schedules it to start at the
  /// current time. Returns an id usable with root_done().
  RootId spawn(Task task);

  /// True when the given root process has run to completion.
  bool root_done(RootId id) const;

  /// Runs until the event queue is empty (processes blocked on channels do
  /// not keep the simulation alive). Returns the number of events processed
  /// in this call. Rethrows the first root-process exception, if any.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Runs all events with time <= `time`, then sets now to `time`.
  /// Returns true if the event queue is empty afterwards.
  bool run_until(Cycles time);

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

  /// co_await engine.yield(): re-schedule at the current cycle, after all
  /// events already queued for this cycle.
  DelayAwaiter yield() { return DelayAwaiter{this, 0}; }

 private:
  struct Item {
    Cycles time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // null for callback items
    bool operator>(const Item& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Pending schedule_call payload, keyed by the event's seq. The table
  /// holds only not-yet-fired callbacks (a handful at any instant), so the
  /// linear lookup on dispatch is cheaper than widening every Item.
  struct CallItem {
    std::uint64_t seq;
    void (*fn)(void*, void*);
    void* a;
    void* b;
  };

  /// Pops and runs the callback registered under `seq`.
  void dispatch_call(std::uint64_t seq);

  void check_root_failures();

  /// Frees frames of completed root processes so long simulations (which
  /// spawn one short-lived process per kernel invocation) stay bounded in
  /// memory. Ids stay valid: a swept root reads as done. Only roots still
  /// holding a frame (live_roots_) are visited, so total sweep work is
  /// O(peak live roots) per sweep instead of O(all roots ever spawned).
  void sweep_finished_roots();

  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue_;
  std::vector<CallItem> calls_;
  std::size_t calls_head_ = 0;  // first not-yet-fired entry in calls_
  std::vector<Task> roots_;
  std::vector<RootId> live_roots_;  // roots whose frame is not yet freed
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t spawns_since_sweep_ = 0;
};

}  // namespace looplynx::sim
