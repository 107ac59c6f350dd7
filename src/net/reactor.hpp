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
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>

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
  // For an fd the caller closes next: drops its handler without an
  // epoll_ctl(DEL), since the close removes it from the epoll set.
  void forget(int fd) { source_->forget(fd); }

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

  // The owner's lifecycle calls (thread-safe).  Both act inline while the
  // loop is not running — before start_thread() and after the loop exits —
  // so an owner needs no flag of its own for "launched".
  //
  // run_sync: runs `fn` on the loop thread and returns its result.  The
  // loop thread and a loop that is not running run it inline; any other
  // caller posts it and waits.  The loop may exit between the check and the
  // post: a waiter that sees the loop stopped with its task not run runs
  // the task itself, so no call waits on a loop that is gone.
  template <typename Fn>
  auto run_sync(Fn fn) -> std::invoke_result_t<Fn&> {
    if (in_reactor_thread() || !running()) return fn();
    // Shared, not borrowed: a post the stopped loop never ran stays queued
    // after this call returns.
    using Task = std::packaged_task<std::invoke_result_t<Fn&>()>;
    auto task = std::make_shared<Task>(std::move(fn));
    auto result = task->get_future();
    post([task] { (*task)(); });
    constexpr auto kReady = std::future_status::ready;
    while (result.wait_for(std::chrono::milliseconds(10)) != kReady) {
      if (running()) continue;
      // running() turns false only after the loop's last dispatch, so a
      // task not run by then never will be.
      if (result.wait_for(std::chrono::seconds(0)) != kReady) (*task)();
      break;
    }
    return result.get();
  }
  // run_or_post: runs `fn` inline while the loop is not running, and posts
  // it otherwise.
  void run_or_post(std::function<void()> fn) {
    if (running()) {
      post(std::move(fn));
    } else {
      fn();
    }
  }

  // Runs the dispatch loop on the calling thread until stop().
  void run();
  // Runs one iteration (poll + dispatch); `timeout_ms` caps the poll wait.
  // Returns the number of events dispatched.
  size_t run_once(int timeout_ms);
  // Thread-safe; wakes the loop and makes run() return.
  void stop();

  // Convenience: run() on a background thread.  running() is true when it
  // returns.
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
