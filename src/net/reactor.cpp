#include "net/reactor.hpp"

#include "common/logging.hpp"

namespace cops::net {

Reactor::Reactor() {
  auto base = std::make_unique<SocketEventSource>();
  SocketEventSource& base_ref = *base;
  auto with_timers = std::make_unique<TimerEventSource>(std::move(base));
  timers_ = with_timers.get();
  auto with_user = std::make_unique<UserEventSource>(std::move(with_timers),
                                                     base_ref);
  user_events_ = with_user.get();
  source_ = std::move(with_user);
}

Reactor::~Reactor() {
  stop();
  join();
}

size_t Reactor::run_once(int timeout_ms) {
  ready_.clear();
  const int timeout = source_->preferred_timeout_ms(timeout_ms);
  auto status = source_->poll(ready_, timeout);
  if (!status.is_ok()) {
    COPS_ERROR("reactor poll failed: " << status.to_string());
    return 0;
  }
  for (auto& callback : ready_) {
    callback();
  }
  events_dispatched_.fetch_add(ready_.size(), std::memory_order_relaxed);
  return ready_.size();
}

void Reactor::run() {
  loop_thread_id_.store(std::this_thread::get_id());
  running_.store(true);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    run_once(500);
  }
  running_.store(false);
}

void Reactor::stop() {
  stop_requested_.store(true, std::memory_order_release);
  // Wake the poll if it is blocked.
  user_events_->post([] {});
}

void Reactor::start_thread(const std::string& name) {
  running_.store(true);
  thread_ = std::thread([this] { run(); });
#ifdef __linux__
  pthread_setname_np(thread_.native_handle(),
                     name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

void Reactor::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace cops::net
