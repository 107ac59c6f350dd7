#include "nserver/event_processor.hpp"

#include <algorithm>
#include <cstdint>

#include "nserver/profiler.hpp"
#include "nserver/trace_context.hpp"

namespace cops::nserver {

namespace {
// Without scheduling every event shares one level, whose quota never runs
// out, so pops never start a new quota round.
std::vector<size_t> queue_quotas(const EventProcessorConfig& config) {
  if (config.scheduling) return config.priority_quotas;
  return {SIZE_MAX};
}
}  // namespace

EventProcessor::EventProcessor(EventProcessorConfig config)
    : config_(std::move(config)),
      inline_mode_(config_.threads == 0),
      queue_(queue_quotas(config_)) {
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
  const auto level = static_cast<size_t>(std::max(event.priority, 0));
  return queue_.push(std::move(event), level);
}

size_t EventProcessor::queue_depth() const { return queue_.size(); }

void EventProcessor::worker_loop() {
  bool retired = false;
  // Each event dies at the end of its iteration: a parked worker must not
  // keep the last action's captures alive.
  while (auto event = queue_.pop()) {
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
    if (queue_.push(Event{}, 0)) ++retiring_;
  }
}

void EventProcessor::pause_low_priority(bool paused) {
  if (!config_.scheduling || inline_mode_) return;
  low_priority_paused_.store(paused, std::memory_order_relaxed);
  queue_.set_paused_floor(paused ? 1 : static_cast<size_t>(-1));
}

size_t EventProcessor::num_threads() const {
  std::lock_guard lock(mutex_);
  return live_;
}

void EventProcessor::stop() {
  stopped_.store(true);
  queue_.shutdown();
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
