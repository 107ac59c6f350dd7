// Quota-based multi-level priority queue — the Event Processor's event
// queue.  Without option O8 (event scheduling) it has one FIFO level; with
// O8 it has the generated quota levels.
//
// Semantics from the paper (Section IV): events of higher priority are
// processed first, but each priority level is given a quota; when a level's
// quota is exhausted, lower-priority events are processed so starvation is
// avoided.  Quotas are replenished once every level has either drained or
// spent its quota (one scheduling round).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace cops {

template <typename T>
class QuotaPriorityQueue {
 public:
  // `quotas[i]` is the number of items level i may dequeue per round;
  // level 0 is the highest priority.  A quota of 0 means "only when all
  // other levels are empty".
  explicit QuotaPriorityQueue(std::vector<size_t> quotas)
      : levels_(quotas.size()), quotas_(std::move(quotas)),
        remaining_(quotas_) {}

  QuotaPriorityQueue(const QuotaPriorityQueue&) = delete;
  QuotaPriorityQueue& operator=(const QuotaPriorityQueue&) = delete;

  [[nodiscard]] size_t num_levels() const { return levels_.size(); }

  // Pushes an item at `priority` (clamped to the last level).
  bool push(T item, size_t priority) {
    {
      std::lock_guard lock(mutex_);
      if (shutdown_) return false;
      if (priority >= levels_.size()) priority = levels_.size() - 1;
      levels_[priority].push_back(std::move(item));
      ++size_;
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocking pop following the quota discipline; empty optional on shutdown.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return shutdown_ || poppable_locked() > 0; });
    if (size_ == 0) return std::nullopt;
    return pop_locked();
  }

  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (poppable_locked() == 0) return std::nullopt;
    return pop_locked();
  }

  // Overload action (adaptive O9, tier 2): levels >= `floor` are paused —
  // pushes are still accepted but pop()/try_pop() will not drain them until
  // the floor is raised again.  floor >= num_levels() (the default) pauses
  // nothing; floor 1 keeps only the highest-priority level running.
  // Shutdown overrides pause so stop() still drains everything.
  void set_paused_floor(size_t floor) {
    {
      std::lock_guard lock(mutex_);
      paused_floor_ = floor;
    }
    // Raising the floor may make parked items poppable again.
    not_empty_.notify_all();
  }

  [[nodiscard]] size_t paused_floor() const {
    std::lock_guard lock(mutex_);
    return paused_floor_;
  }

  void shutdown() {
    {
      std::lock_guard lock(mutex_);
      shutdown_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] size_t size() const {
    std::lock_guard lock(mutex_);
    return size_;
  }
  [[nodiscard]] size_t level_size(size_t level) const {
    std::lock_guard lock(mutex_);
    return level < levels_.size() ? levels_[level].size() : 0;
  }

 private:
  // Levels eligible for dequeue right now: all of them during shutdown
  // (drain), otherwise only those below the paused floor.
  [[nodiscard]] size_t drain_limit_locked() const {
    return shutdown_ ? levels_.size() : std::min(paused_floor_, levels_.size());
  }

  // Items currently allowed to be popped (drives the pop() wait predicate).
  [[nodiscard]] size_t poppable_locked() const {
    const size_t limit = drain_limit_locked();
    size_t n = 0;
    for (size_t i = 0; i < limit; ++i) n += levels_[i].size();
    return n;
  }

  std::optional<T> pop_locked() {
    const size_t limit = drain_limit_locked();
    // Pass 1: highest non-empty level with remaining quota.
    for (size_t i = 0; i < limit; ++i) {
      if (!levels_[i].empty() && remaining_[i] > 0) {
        --remaining_[i];
        return take_from(i);
      }
    }
    // All non-empty levels exhausted their quotas: start a new round.
    remaining_ = quotas_;
    for (size_t i = 0; i < limit; ++i) {
      if (!levels_[i].empty() && remaining_[i] > 0) {
        --remaining_[i];
        return take_from(i);
      }
    }
    // Every non-empty level has quota 0: fall back to strict priority so
    // work still drains.
    for (size_t i = 0; i < limit; ++i) {
      if (!levels_[i].empty()) return take_from(i);
    }
    return std::nullopt;  // everything poppable is paused
  }

  T take_from(size_t level) {
    T item = std::move(levels_[level].front());
    levels_[level].pop_front();
    --size_;
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::vector<std::deque<T>> levels_;
  std::vector<size_t> quotas_;
  std::vector<size_t> remaining_;
  size_t size_ = 0;
  size_t paused_floor_ = static_cast<size_t>(-1);  // nothing paused
  bool shutdown_ = false;
};

}  // namespace cops
