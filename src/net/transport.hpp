// Transport seam — the syscall boundary between the networking substrate
// and the kernel.
//
// Production traffic goes straight to the real syscalls: the only cost of
// the seam is a constant fd-range compare (is_sim_fd) on values already in
// registers — no virtual dispatch on the real-socket path.  When a
// SimBackend is installed (src/simnet), listeners and accepted sockets get
// descriptors from a reserved high range and every operation on them is
// routed to the simulator, which emulates the kernel ABI (byte counts +
// errno).  Because the emulation happens *below* TcpSocket/Poller, the
// exact EINTR/EAGAIN/partial-I/O handling code that runs in production is
// what runs under simulation — the point of the whole exercise.
#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "net/inet_address.hpp"

namespace cops::net {

// Interest/readiness flags (mirrored onto EPOLLIN/EPOLLOUT internally).
inline constexpr uint32_t kReadable = 0x1;
inline constexpr uint32_t kWritable = 0x2;
inline constexpr uint32_t kErrored = 0x4;

struct ReadyFd {
  int fd = -1;
  uint32_t events = 0;
};

// Simulated descriptors live at the top of the fd space, far above any
// value the kernel will hand out under normal rlimits.
inline constexpr int kSimFdBase = 1 << 28;
[[nodiscard]] constexpr bool is_sim_fd(int fd) { return fd >= kSimFdBase; }

// Kernel-ABI-shaped result: `n` is the syscall return value, `err` the
// errno to expose when n < 0.
struct SysResult {
  ssize_t n = 0;
  int err = 0;
};

// The simulator's side of the seam.  One implementation: simnet::SimEngine.
class SimBackend {
 public:
  virtual ~SimBackend() = default;

  // ---- socket ops on sim fds (kernel ABI semantics) ---------------------
  virtual SysResult sim_read(int fd, void* buf, size_t len) = 0;
  virtual SysResult sim_write(int fd, const void* buf, size_t len) = 0;
  // Scatter-gather write.  The default decomposes to sim_write on the first
  // non-empty iovec — a legal (partial) writev result; SimEngine overrides
  // with a gather that can short-write across segment boundaries.
  virtual SysResult sim_writev(int fd, const struct iovec* iov, int iovcnt);
  // sendfile(out_fd=sim, in_fd=real file): the default and the SimEngine
  // override both pread the real file and push the bytes through the
  // sim_write fault machinery, so partial sendfiles and EAGAIN bursts hit
  // the exact resumption code that runs in production.
  virtual SysResult sim_sendfile(int out_fd, int in_fd, uint64_t offset,
                                 size_t count);
  // n >= 0 is the accepted (sim) fd.
  virtual SysResult sim_accept(int listen_fd) = 0;
  // Connections queued on the listener (the tcpi_unacked of a real LISTEN
  // socket).  A pure query: it draws no fault and no randomness.
  virtual size_t sim_accept_pending(int listen_fd) = 0;
  virtual void sim_shutdown_write(int fd) = 0;
  virtual void sim_close(int fd) = 0;
  virtual Result<InetAddress> sim_local_address(int fd) = 0;
  virtual Result<InetAddress> sim_peer_address(int fd) = 0;

  // ---- endpoint creation ------------------------------------------------
  // Binds a simulated listener; port 0 gets a deterministic engine port.
  virtual Result<int> sim_listen(const InetAddress& addr, int backlog) = 0;
  // Outbound connections from within the simulated process.
  virtual Result<int> sim_connect(const InetAddress& peer) = 0;

  // ---- poller ops (keyed by the Poller instance) ------------------------
  virtual Status sim_poll_add(const void* poller, int fd,
                              uint32_t interest) = 0;
  virtual Status sim_poll_modify(const void* poller, int fd,
                                 uint32_t interest) = 0;
  virtual Status sim_poll_remove(const void* poller, int fd) = 0;
  // Replaces epoll_wait wholesale while a backend is installed: computes
  // readiness of registered sim fds, runs scripted client actions, and
  // advances the virtual clock instead of sleeping.
  virtual size_t sim_poll_wait(const void* poller, std::vector<ReadyFd>& out,
                               int timeout_ms) = 0;
  // Cross-thread wakeup for `poller` (the sim-time analogue of the reactor's
  // eventfd write).  A real eventfd write is invisible to the simulator, so
  // without this hook a callback posted to another reactor would sit unserved
  // while the virtual clock raced to the run deadline.  The simulator grants
  // the notified poller at the *current* virtual instant — a cross-reactor
  // hand-off costs zero virtual time.  Default no-op: a poller that never
  // receives posts needs nothing.
  virtual void sim_notify(const void* /*poller*/) {}
};

namespace detail {
extern std::atomic<SimBackend*> g_sim_backend;
}

// nullptr in production.  Relaxed: install/uninstall happen on quiesced
// test boundaries, never concurrently with traffic.
[[nodiscard]] inline SimBackend* sim_backend() {
  return detail::g_sim_backend.load(std::memory_order_relaxed);
}
void install_sim_backend(SimBackend* backend);
void uninstall_sim_backend();

}  // namespace cops::net
