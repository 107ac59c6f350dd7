// EventProcessor — the participant the N-Server adds to the Reactor so the
// pattern scales beyond one processor (paper, Section IV): "An Event
// Processor contains an event queue and a pool of threads that operate
// collaboratively to process ready events."
//
// The queue is a quota-based priority queue whose levels are fixed at
// construction (generation time in CO₂P₃S terms): one FIFO level, or —
// when option O8 (event scheduling) is on — the quota levels, the
// structural variation the paper describes replacing "a normal event
// queue ... by a priority queue".
//
// With zero threads the processor degenerates to inline execution on the
// submitting (dispatcher) thread — option O2 = No, the classic
// single-process event-driven (SPED) structure.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/quota_priority_queue.hpp"
#include "nserver/event.hpp"

namespace cops::nserver {

class Profiler;

struct EventProcessorConfig {
  std::string name = "processor";
  size_t threads = 2;  // 0 = inline execution on the submitter
  bool scheduling = false;
  std::vector<size_t> priority_quotas = {8, 1};
  // When set (O11), every queued event's wait time is recorded into the
  // queue_wait stage histogram.  Not owned; must outlive the processor.
  Profiler* profiler = nullptr;
};

class EventProcessor {
 public:
  explicit EventProcessor(EventProcessorConfig config);
  ~EventProcessor();
  EventProcessor(const EventProcessor&) = delete;
  EventProcessor& operator=(const EventProcessor&) = delete;

  // Enqueues (or, with zero threads, runs) an event, which must carry an
  // action.  Returns false after stop().
  bool submit(Event event);

  // Current queue depth — the signal the overload controller watches.
  [[nodiscard]] size_t queue_depth() const;

  // Dynamic thread allocation (option O5): grow/shrink the worker pool.
  // Growing spawns workers at once; shrinking queues one retire token (an
  // Event without an action) per surplus worker, and the worker that pops
  // a token exits.  num_threads() counts the workers still running.
  void resize(size_t threads);
  [[nodiscard]] size_t num_threads() const;

  // Overload action (adaptive O9, tier 2): park every quota level except
  // the highest — queued low-priority events stay queued, new ones still
  // enqueue, and workers drain only level 0 until resumed.  No-op without
  // event scheduling (O8) or in inline mode (nothing is ever queued).
  void pause_low_priority(bool paused);
  [[nodiscard]] bool low_priority_paused() const {
    return low_priority_paused_.load(std::memory_order_relaxed);
  }

  // Drains and joins.  Safe to call twice.
  void stop();

  [[nodiscard]] uint64_t processed() const { return processed_.load(); }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] bool inline_mode() const { return inline_mode_; }

 private:
  void worker_loop();
  void spawn_locked(size_t count);

  EventProcessorConfig config_;
  bool inline_mode_;
  QuotaPriorityQueue<Event> queue_;  // one level unless scheduling (O8)

  mutable std::mutex mutex_;
  std::vector<std::thread> workers_;      // every worker not yet joined
  std::vector<std::thread::id> retired_;  // exited on a token; to be joined
  size_t live_ = 0;                       // workers not yet exited
  size_t retiring_ = 0;                   // tokens queued but not yet popped
  std::atomic<bool> stopped_{false};
  std::atomic<bool> low_priority_paused_{false};
  std::atomic<uint64_t> processed_{0};
};

}  // namespace cops::nserver
