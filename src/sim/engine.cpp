#include "sim/engine.hpp"

#include <algorithm>

namespace looplynx::sim {

Engine::~Engine() {
  // Drop scheduled handles without resuming them; the frames they reference
  // are owned by roots_ (directly or through nested child tasks) and are
  // destroyed when roots_ is cleared below.
  while (!queue_.empty()) queue_.pop();
  roots_.clear();
}

void Engine::schedule_at(Cycles time, std::coroutine_handle<> h) {
  if (time < now_) time = now_;  // never schedule into the past
  queue_.push(Item{{time, now_, seq_++},
                   reinterpret_cast<std::uintptr_t>(h.address())});
}

std::uint64_t Engine::arm(Timer& timer, Cycles time, Cycles stamp) {
  if (time < now_) time = now_;
  timer.ticket_ = seq_;
  queue_.push(Item{{time, std::min(stamp, time), seq_++},
                   reinterpret_cast<std::uintptr_t>(&timer) | kTimerTag});
  return timer.ticket_;
}

void Engine::spawn(Task task) {
  if (++spawns_since_sweep_ >= 4096) {
    spawns_since_sweep_ = 0;
    sweep_finished_roots();
  }
  schedule(0, task.handle());
  roots_.push_back(std::move(task));
}

void Engine::sweep_finished_roots() {
  check_root_failures();
  roots_.erase(std::remove_if(roots_.begin(), roots_.end(),
                              [](const Task& root) { return root.done(); }),
               roots_.end());
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t processed = 0;
  while (!queue_.empty() && processed < max_events) {
    const Item item = queue_.top();
    queue_.pop();
    Timer* timer = nullptr;
    if ((item.target & kTimerTag) != 0) {
      timer = reinterpret_cast<Timer*>(item.target & ~kTimerTag);
      if (timer->ticket_ != item.key.seq) continue;  // superseded
      timer->ticket_ = Timer::kIdle;
    }
    now_ = item.key.time;
    current_ = item.key;
    if (timer != nullptr) {
      timer->waiter_.resume();
    } else if (item.target != 0) {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(item.target))
          .resume();
    } else {
      dispatch_call();
    }
    ++processed;
  }
  check_root_failures();
  return processed;
}

void Engine::dispatch_call() {
  // The cursor dodges the O(pending) erase a front pop would cost.
  const CallItem c = calls_[calls_head_];
  if (++calls_head_ == calls_.size()) {
    calls_.clear();
    calls_head_ = 0;
  }
  c.fn(c.a, c.b);
}

void Engine::check_root_failures() {
  for (const Task& root : roots_) {
    if (root.done()) root.rethrow_if_failed();
  }
}

}  // namespace looplynx::sim
