// Reactor — the Event Dispatcher of the N-Server.
//
// Repeatedly asks the (decorator-composed) Event Source for ready events and
// dispatches them.  When the N-Server option "separate thread pool for event
// handling" (O2) is off, the dispatch happens inline on this thread (classic
// single-threaded Reactor / SPED); when it is on, the Server wires handlers
// that enqueue work into an EventProcessor instead (see src/nserver).
//
// Option O1 ("# of dispatcher threads: 1 or 2N") is realized by running
// several Reactor instances, each with its own Event Source, and sharding
// accepted connections across them (see nserver::Server).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "net/event_source.hpp"

namespace cops::net {

class Reactor {
 public:
  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // ---- Event Handler registration (reactor thread only) ----------------
  Status register_handler(int fd, EventHandler* handler, uint32_t interest) {
    return source_->register_handler(fd, handler, interest);
  }
  Status update_interest(int fd, uint32_t interest) {
    return source_->update_interest(fd, interest);
  }
  Status deregister(int fd) { return source_->deregister(fd); }

  // ---- timers (reactor thread only) -------------------------------------
  TimerQueue::TimerId run_after(Duration delay, std::function<void()> fn) {
    return timers_->schedule_after(delay, std::move(fn));
  }
  TimerQueue::TimerId run_at(TimePoint deadline, std::function<void()> fn) {
    return timers_->schedule_at(deadline, std::move(fn));
  }
  void cancel_timer(TimerQueue::TimerId id) { timers_->cancel(id); }

  // ---- cross-thread -----------------------------------------------------
  // Queues `fn` to run on the reactor thread (thread-safe).
  void post(std::function<void()> fn) { user_events_->post(std::move(fn)); }

  // Runs the dispatch loop on the calling thread until stop().
  void run();
  // Runs one iteration (poll + dispatch); `timeout_ms` caps the poll wait.
  // Returns the number of events dispatched.
  size_t run_once(int timeout_ms);
  // Thread-safe; wakes the loop and makes run() return.
  void stop();

  // Convenience: run() on a background thread.
  void start_thread(const std::string& name = "reactor");
  void join();

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] bool in_reactor_thread() const {
    return std::this_thread::get_id() == loop_thread_id_.load();
  }
  [[nodiscard]] uint64_t events_dispatched() const {
    return events_dispatched_.load();
  }

 private:
  // Decorator chain: UserEventSource( TimerEventSource( SocketEventSource )).
  std::unique_ptr<EventSource> source_;
  TimerEventSource* timers_ = nullptr;     // borrowed from the chain
  UserEventSource* user_events_ = nullptr; // borrowed from the chain

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_id_{};
  std::atomic<uint64_t> events_dispatched_{0};
  std::thread thread_;
  std::vector<ReadyCallback> ready_;
};

}  // namespace cops::net
