#include "net/event_source.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>

namespace cops::net {

namespace {

// UBSan's vptr check probes whether the vtable memory is readable by writing
// it down a throwaway pipe; with the descriptor table fully exhausted (the
// EMFILE accept storm exercised by fd_lifecycle_test) that pipe cannot be
// created and a perfectly valid vptr is reported as invalid, aborting the
// run.  The dispatch call is the first virtual call made while the process
// is at zero free descriptors, so it alone carries the exemption.
__attribute__((no_sanitize("vptr"))) void dispatch_unchecked(
    EventHandler* handler, int fd, uint32_t events) {
  handler->handle_event(fd, events);
}

}  // namespace

// ---- SocketEventSource ----------------------------------------------------

Status SocketEventSource::register_handler(int fd, EventHandler* handler,
                                           uint32_t interest) {
  auto status = poller_.add(fd, interest);
  if (!status.is_ok()) return status;
  handlers_[fd] = {handler, next_generation_++, interest, 0};
  return Status::ok();
}

Status SocketEventSource::update_interest(int fd, uint32_t interest) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return poller_.modify(fd, interest);
  if (it->second.interest == interest) return Status::ok();
  auto status = poller_.modify(fd, interest);
  if (status.is_ok()) it->second.interest = interest;
  return status;
}

Status SocketEventSource::deregister(int fd) {
  handlers_.erase(fd);
  return poller_.remove(fd);
}

void SocketEventSource::forget(int fd) {
  handlers_.erase(fd);
  poller_.forget(fd);
}

Status SocketEventSource::add_wakeup_fd(int fd) {
  wakeup_fd_ = fd;
  return poller_.add(fd, kReadable);
}

Status SocketEventSource::poll(std::vector<ReadyCallback>& out,
                               int timeout_ms) {
  scratch_.clear();
  auto n = poller_.wait(scratch_, timeout_ms);
  if (!n.is_ok()) return n.status();
  for (const auto& ready : scratch_) {
    if (ready.fd == wakeup_fd_) {
      wakeup_ready_ = true;
      continue;
    }
    auto it = handlers_.find(ready.fd);
    if (it == handlers_.end()) continue;  // deregistered concurrently
    it->second.ready = ready.events;
    // fd and generation packed into one word: with `this` the capture is 16
    // bytes, which std::function stores inline — no allocation per event.
    const uint64_t key =
        (uint64_t{static_cast<uint32_t>(ready.fd)} << 32) |
        it->second.generation;
    out.push_back([this, key] { dispatch(key); });
  }
  return Status::ok();
}

void SocketEventSource::dispatch(uint64_t key) {
  // Re-validate at dispatch time: an earlier callback in this batch may
  // have deregistered the fd (or a recycled fd re-registered with a new
  // generation).
  const int fd = static_cast<int>(key >> 32);
  auto live = handlers_.find(fd);
  if (live == handlers_.end() ||
      live->second.generation != static_cast<uint32_t>(key)) {
    return;
  }
  dispatch_unchecked(live->second.handler, fd, live->second.ready);
}

// ---- TimerEventSource -----------------------------------------------------

int TimerEventSource::preferred_timeout_ms(int proposed) const {
  return timers_.next_timeout_ms(inner().preferred_timeout_ms(proposed));
}

Status TimerEventSource::poll(std::vector<ReadyCallback>& out,
                              int timeout_ms) {
  auto status = inner().poll(out, timeout_ms);
  if (!status.is_ok()) return status;
  // Expired timers become ready events after the poll returns.
  timers_.run_due();
  return Status::ok();
}

// ---- UserEventSource ------------------------------------------------------

UserEventSource::UserEventSource(std::unique_ptr<EventSource> inner,
                                 SocketEventSource& base)
    : EventSourceDecorator(std::move(inner)),
      wakeup_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      base_(base) {
  // Readiness of the wakeup fd only interrupts the poll; the queued
  // callbacks are drained in poll() below.
  base_.add_wakeup_fd(wakeup_fd_.get());
}

void UserEventSource::post(std::function<void()> fn) {
  // No post is lost: the push happens before the exchange, and poll()
  // clears the flag before it drains the queue.  A post whose exchange
  // finds the flag set comes before the next clear, so the drain after that
  // clear sees its callback.  The post that set the flag writes the
  // eventfd, which stays readable until a poll pass reads it, and a pass
  // reads it before it clears, so the reactor cannot sleep through that
  // clear.
  {
    std::lock_guard lock(posts_mutex_);
    posts_.push_back(std::move(fn));
  }
  if (!wakeup_pending_.exchange(true, std::memory_order_acq_rel)) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeup_fd_.get(), &one, sizeof(one));
  }
  // The eventfd is a real descriptor, so under simulation the write above
  // wakes nothing — tell the simulator directly which poller has work.
  if (auto* sim = sim_backend(); sim != nullptr) [[unlikely]] {
    sim->sim_notify(&base_.poller());
  }
}

int UserEventSource::preferred_timeout_ms(int proposed) const {
  {
    std::lock_guard lock(posts_mutex_);
    if (!posts_.empty()) return 0;
  }
  return inner().preferred_timeout_ms(proposed);
}

Status UserEventSource::poll(std::vector<ReadyCallback>& out, int timeout_ms) {
  auto status = inner().poll(out, timeout_ms);
  if (!status.is_ok()) return status;
  // One read resets the eventfd counter however many writes it absorbed.
  // Read it only when epoll reported it readable, not whenever the flag was
  // set: a writer whose exchange won but whose write lands after this read
  // would otherwise leave the level-triggered eventfd readable with the
  // flag clear, and every pass until the next post would return at once.
  if (base_.take_wakeup_ready()) {
    uint64_t counter = 0;
    [[maybe_unused]] ssize_t n =
        ::read(wakeup_fd_.get(), &counter, sizeof(counter));
  }
  wakeup_pending_.exchange(false, std::memory_order_acq_rel);
  {
    std::lock_guard lock(posts_mutex_);
    posts_.swap(drained_);
  }
  for (auto& fn : drained_) out.push_back(std::move(fn));
  drained_.clear();
  return Status::ok();
}

}  // namespace cops::net
