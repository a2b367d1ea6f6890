// Bounded FIFO channel — the simulated equivalent of an HLS hls::stream /
// AXI-Stream connection between dataflow kernels.
//
// put() blocks (suspends the calling process) when the channel is full;
// get() blocks when it is empty. Hand-off is direct: a put with waiting
// consumers delivers straight into the oldest waiter, and a get that frees
// space immediately admits the oldest blocked producer, preserving strict
// FIFO order in both directions.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "sim/engine.hpp"

namespace looplynx::sim {

template <typename T>
class Fifo {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  /// `capacity` is the FIFO depth in elements (HLS stream depth). Must be
  /// >= 1; use kUnbounded for an infinitely deep channel.
  Fifo(Engine& engine, std::size_t capacity, std::string name = "")
      : engine_(&engine), capacity_(capacity), name_(std::move(name)) {
    assert(capacity_ >= 1 && "FIFO depth must be at least 1");
  }

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  bool full() const noexcept {
    return capacity_ != kUnbounded && items_.size() >= capacity_;
  }
  std::size_t capacity() const noexcept { return capacity_; }
  const std::string& name() const noexcept { return name_; }

  /// Cumulative number of elements that have passed through the channel.
  std::uint64_t total_transfers() const noexcept { return transfers_; }

  /// High-water mark of the occupancy (useful for sizing HLS stream depths).
  std::size_t max_occupancy() const noexcept { return max_occupancy_; }

  struct PutAwaiter {
    Fifo* fifo;
    T value;
    bool await_ready() {
      if (!fifo->waiting_getters_.empty()) {
        // Direct hand-off to the oldest blocked consumer.
        GetAwaiter* getter = fifo->waiting_getters_.front();
        fifo->waiting_getters_.pop_front();
        getter->value = std::move(value);
        getter->has_value = true;
        fifo->engine_->schedule(0, getter->handle);
        fifo->count_transfer();
        return true;
      }
      if (!fifo->full()) {
        fifo->push_item(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      fifo->waiting_putters_.push_back(this);
    }
    void await_resume() noexcept {}

    std::coroutine_handle<> handle{};
  };

  struct GetAwaiter {
    Fifo* fifo;
    T value{};
    bool has_value = false;

    bool await_ready() {
      if (!fifo->items_.empty()) {
        value = std::move(fifo->items_.front());
        fifo->items_.pop_front();
        has_value = true;
        fifo->count_transfer();
        fifo->admit_blocked_putter();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      fifo->waiting_getters_.push_back(this);
    }
    T await_resume() {
      assert(has_value && "FIFO getter resumed without a value");
      return std::move(value);
    }

    std::coroutine_handle<> handle{};
  };

  /// co_await fifo.put(v): append v, suspending while the channel is full.
  PutAwaiter put(T value) { return PutAwaiter{this, std::move(value)}; }

  /// co_await fifo.get(): remove and return the oldest element, suspending
  /// while the channel is empty.
  GetAwaiter get() { return GetAwaiter{this}; }

  /// Non-suspending get; returns false if the channel is empty.
  bool try_get(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    count_transfer();
    admit_blocked_putter();
    return true;
  }

 private:
  friend struct PutAwaiter;
  friend struct GetAwaiter;

  void push_item(T value) {
    items_.push_back(std::move(value));
    if (items_.size() > max_occupancy_) max_occupancy_ = items_.size();
  }

  void admit_blocked_putter() {
    if (waiting_putters_.empty() || full()) return;
    PutAwaiter* putter = waiting_putters_.front();
    waiting_putters_.pop_front();
    push_item(std::move(putter->value));
    engine_->schedule(0, putter->handle);
  }

  void count_transfer() noexcept { ++transfers_; }

  Engine* engine_;
  std::size_t capacity_;
  std::string name_;
  std::deque<T> items_;
  std::deque<PutAwaiter*> waiting_putters_;
  std::deque<GetAwaiter*> waiting_getters_;
  std::uint64_t transfers_ = 0;
  std::size_t max_occupancy_ = 0;
};

}  // namespace looplynx::sim
