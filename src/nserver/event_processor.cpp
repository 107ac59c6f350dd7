#include "nserver/event_processor.hpp"

#include <algorithm>

#include "nserver/profiler.hpp"
#include "nserver/trace_context.hpp"

namespace cops::nserver {

EventProcessor::EventProcessor(EventProcessorConfig config)
    : config_(std::move(config)), inline_mode_(config_.threads == 0) {
  if (config_.scheduling) {
    prio_ = std::make_unique<QuotaPriorityQueue<Event>>(config_.priority_quotas);
  } else {
    fifo_ = std::make_unique<MpmcQueue<Event>>();
  }
  if (!inline_mode_) {
    std::lock_guard lock(mutex_);
    spawn_locked(config_.threads);
  }
}

EventProcessor::~EventProcessor() { stop(); }

bool EventProcessor::submit(Event event) {
  if (stopped_.load(std::memory_order_acquire)) return false;
  if (inline_mode_) {
    // No queue, no wait: the submitter runs the event directly.
    event.action();
    processed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (config_.profiler != nullptr) event.enqueued_us = trace_now_us();
  return enqueue(std::move(event));
}

bool EventProcessor::enqueue(Event event) {
  if (!prio_) return fifo_->push(std::move(event));
  const int level = event.priority < 0 ? 0 : event.priority;
  return prio_->push(std::move(event), static_cast<size_t>(level));
}

size_t EventProcessor::queue_depth() const {
  return prio_ ? prio_->size() : fifo_->size();
}

std::optional<Event> EventProcessor::pop() {
  if (prio_) return prio_->pop();
  return fifo_->pop();
}

void EventProcessor::worker_loop() {
  bool retired = false;
  // Each event dies at the end of its iteration: a parked worker must not
  // keep the last action's captures alive.
  while (auto event = pop()) {
    if (!event->action) {  // a retire token from resize()
      retired = true;
      break;
    }
    if (config_.profiler != nullptr && event->enqueued_us != 0) {
      config_.profiler->record_stage(Stage::kQueueWait,
                                     trace_now_us() - event->enqueued_us);
    }
    event->action();
    processed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Shut down and drained, or retired.
  std::lock_guard lock(mutex_);
  --live_;
  if (retired) {
    --retiring_;
    retired_.push_back(std::this_thread::get_id());
  }
}

void EventProcessor::spawn_locked(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    ++live_;
  }
}

void EventProcessor::resize(size_t threads) {
  if (inline_mode_ || stopped_.load()) return;
  std::lock_guard lock(mutex_);
  // Join the workers that exited on a token.  Each recorded its id under
  // this mutex on its way out, so the join waits for nothing but the return.
  for (const auto id : retired_) {
    const auto it =
        std::find_if(workers_.begin(), workers_.end(),
                     [id](const std::thread& t) { return t.get_id() == id; });
    it->join();
    workers_.erase(it);
  }
  retired_.clear();
  const size_t target = live_ - retiring_;
  if (threads > target) spawn_locked(threads - target);
  for (size_t i = threads; i < target; ++i) {
    if (enqueue(Event{})) ++retiring_;
  }
}

void EventProcessor::pause_low_priority(bool paused) {
  if (!prio_ || inline_mode_) return;
  low_priority_paused_.store(paused, std::memory_order_relaxed);
  prio_->set_paused_floor(paused ? 1 : static_cast<size_t>(-1));
}

size_t EventProcessor::num_threads() const {
  std::lock_guard lock(mutex_);
  return live_;
}

void EventProcessor::stop() {
  stopped_.store(true);
  if (prio_) prio_->shutdown();
  if (fifo_) fifo_->shutdown();
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mutex_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  std::lock_guard lock(mutex_);
  retired_.clear();
}

}  // namespace cops::nserver
