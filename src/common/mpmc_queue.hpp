// Unbounded multi-producer multi-consumer FIFO queue.
//
// This is the incoming event queue of an EventProcessor when event scheduling
// (option O8) is disabled.  Blocking pop with shutdown support lets the
// processor's worker threads park when the server is idle — the paper's
// event-driven model uses a small number of threads that loop on the queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace cops {

template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Appends an item.  Returns false if the queue was shut down.
  bool push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (shutdown_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocking pop; empty optional means the queue was shut down and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return shutdown_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void shutdown() {
    {
      std::lock_guard lock(mutex_);
      shutdown_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool shutdown_ = false;
};

}  // namespace cops
