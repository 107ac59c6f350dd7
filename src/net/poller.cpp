#include "net/poller.hpp"

#include <sys/epoll.h>

#include <array>
#include <cerrno>

namespace cops::net {
namespace {

uint32_t to_epoll(uint32_t interest) {
  uint32_t ev = 0;
  if ((interest & kReadable) != 0) ev |= EPOLLIN;
  if ((interest & kWritable) != 0) ev |= EPOLLOUT;
  return ev;
}

uint32_t from_epoll(uint32_t ev) {
  uint32_t out = 0;
  if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) out |= kReadable;
  if ((ev & EPOLLOUT) != 0) out |= kWritable;
  if ((ev & (EPOLLERR | EPOLLHUP)) != 0) out |= kErrored;
  return out;
}

}  // namespace

// EPOLL_CLOEXEC: the demultiplexer must not leak into forked helpers.
Poller::Poller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Status Poller::add(int fd, uint32_t interest) {
  if (is_sim_fd(fd)) [[unlikely]] {
    return sim_backend()->sim_poll_add(this, fd, interest);
  }
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::from_errno("epoll_ctl(ADD)");
  }
  return Status::ok();
}

Status Poller::modify(int fd, uint32_t interest) {
  if (is_sim_fd(fd)) [[unlikely]] {
    return sim_backend()->sim_poll_modify(this, fd, interest);
  }
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::from_errno("epoll_ctl(MOD)");
  }
  return Status::ok();
}

Status Poller::remove(int fd) {
  if (is_sim_fd(fd)) [[unlikely]] {
    return sim_backend()->sim_poll_remove(this, fd);
  }
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Status::from_errno("epoll_ctl(DEL)");
  }
  return Status::ok();
}

void Poller::forget(int fd) {
  if (is_sim_fd(fd)) [[unlikely]] {
    (void)sim_backend()->sim_poll_remove(this, fd);
  }
}

Result<size_t> Poller::wait(std::vector<ReadyFd>& out, int timeout_ms) {
  // While a simulation backend is installed the wait is answered entirely
  // from the simulator: virtual time advances instead of sleeping, and the
  // few real fds in the set (the reactor's wakeup eventfd) are covered by
  // the UserEventSource's queue-length timeout logic.
  if (auto* sim = sim_backend(); sim != nullptr) [[unlikely]] {
    return sim->sim_poll_wait(this, out, timeout_ms);
  }
  std::array<epoll_event, 256> events;  // NOLINT
  const int n =
      ::epoll_wait(epoll_fd_.get(), events.data(),
                   static_cast<int>(events.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return size_t{0};
    return Status::from_errno("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    out.push_back({events[static_cast<size_t>(i)].data.fd,
                   from_epoll(events[static_cast<size_t>(i)].events)});
  }
  return static_cast<size_t>(n);
}

}  // namespace cops::net
