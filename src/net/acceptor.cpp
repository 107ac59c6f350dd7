#include "net/acceptor.hpp"

#include <fcntl.h>

#include <chrono>

#include "common/logging.hpp"

namespace cops::net {

Acceptor::~Acceptor() { close(); }

Status Acceptor::open(const InetAddress& addr, int backlog) {
  auto listener = TcpListener::listen(addr, backlog);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).take();
  // Descriptors held in reserve for EMFILE recovery (see
  // handle_fd_exhaustion).
  for (auto& r : reserve_) r = Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  auto status =
      reactor_.register_handler(listener_.fd(), this, kReadable);
  if (!status.is_ok()) return status;
  registered_ = true;
  return Status::ok();
}

Status Acceptor::suspend() {
  if (!registered_ || suspended_) return Status::ok();
  auto status = reactor_.deregister(listener_.fd());
  if (!status.is_ok()) return status;
  suspended_ = true;
  return Status::ok();
}

Status Acceptor::resume() {
  if (!registered_ || !suspended_) return Status::ok();
  auto status = reactor_.register_handler(listener_.fd(), this, kReadable);
  if (!status.is_ok()) return status;
  suspended_ = false;
  return Status::ok();
}

void Acceptor::close() {
  if (resume_timer_armed_) {
    reactor_.cancel_timer(resume_timer_);
    resume_timer_armed_ = false;
  }
  if (registered_ && !suspended_) {
    reactor_.deregister(listener_.fd());
  }
  registered_ = false;
  listener_.close();
  for (auto& r : reserve_) r.reset();
}

void Acceptor::handle_event(int /*fd*/, uint32_t /*readiness*/) {
  // Accept everything available; the listener is edge-insensitive (level-
  // triggered epoll) but draining here saves wakeups.
  while (true) {
    auto sock = listener_.accept();
    if (!sock.is_ok()) {
      const auto code = sock.status().code();
      if (code == StatusCode::kWouldBlock) return;
      if (code == StatusCode::kResourceExhausted) {
        handle_fd_exhaustion();
        return;
      }
      COPS_WARN("accept failed: " << sock.status().to_string());
      return;
    }
    ++accepted_;
    on_accept_(std::move(sock).take());
  }
}

void Acceptor::handle_fd_exhaustion() {
  ++overflow_events_;
  const bool had_reserve = reserve_[0].valid();
  if (had_reserve) {
    // Shed the pending connection: free the reserve slots, accept into one,
    // and close immediately.  The client gets a prompt close instead of
    // hanging in the listen queue until timeout.
    for (auto& r : reserve_) r.reset();
    auto shed = listener_.accept();
    if (shed.is_ok()) {
      ++shed_;
      std::move(shed).take().close();
    }
  }
  // Backstop: deregister the listener for a beat.  Without this the level-
  // triggered readable state spins the reactor at 100% CPU for as long as
  // the process stays out of descriptors.  This control-plane work runs
  // while the reserve slot is still free: anything here may need a
  // descriptor (log reopen, sanitizer memory probes), and at true zero-fd
  // those fail in ways that are much harder to debug than a missed shed.
  if (!suspended_ && registered_) {
    if (suspend().is_ok()) {
      resume_timer_ = reactor_.run_after(
          std::chrono::milliseconds(resume_delay_ms_), [this] {
            resume_timer_armed_ = false;
            resume();
          });
      resume_timer_armed_ = true;
    }
  }
  if (had_reserve) {
    for (auto& r : reserve_) r = Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  }
}

}  // namespace cops::net
