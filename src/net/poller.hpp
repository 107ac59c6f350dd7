// OS event-demultiplexing facade underneath the Reactor (the paper's Java
// implementation sits on java.nio Selector; on Linux that is epoll).
//
// The simulation seam sits in front of every epoll call, so sim fds never
// reach the kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"  // interest flags, ReadyFd, the simulation seam

namespace cops::net {

class Poller {
 public:
  Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  Status add(int fd, uint32_t interest);
  Status modify(int fd, uint32_t interest);
  Status remove(int fd);

  // Waits up to timeout_ms (-1 = forever); appends ready fds to `out` and
  // returns the number of ready descriptors.
  Result<size_t> wait(std::vector<ReadyFd>& out, int timeout_ms);

  [[nodiscard]] bool valid() const { return epoll_fd_.valid(); }

 private:
  Fd epoll_fd_;
};

}  // namespace cops::net
