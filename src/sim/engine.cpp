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
  queue_.push(Item{time, seq_++, h});
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
    Item item = queue_.top();
    queue_.pop();
    now_ = item.time;
    if (item.handle) {
      item.handle.resume();
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
