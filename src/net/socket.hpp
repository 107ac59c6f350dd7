// RAII file descriptors and non-blocking TCP sockets.
//
// The N-Server requires non-blocking socket I/O (the paper uses Java NIO);
// here that is epoll + O_NONBLOCK.  All I/O methods translate EAGAIN into
// StatusCode::kWouldBlock so the reactor can re-arm interest.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <optional>
#include <utility>

#include "common/byte_buffer.hpp"
#include "common/status.hpp"
#include "net/inet_address.hpp"

namespace cops::net {

// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(Fd fd) : fd_(std::move(fd)) {}
  // A socket whose peer is already known (from accept4 or connect) answers
  // peer_address() without a getpeername.
  TcpSocket(Fd fd, const InetAddress& peer)
      : fd_(std::move(fd)), peer_(peer) {}

  // Creates a non-blocking socket and starts a connect; kWouldBlock means
  // in progress (wait for writability, then check finish_connect()).
  static Result<TcpSocket> connect(const InetAddress& peer);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool valid() const { return fd_.valid(); }

  // Checks SO_ERROR after a non-blocking connect completes.
  [[nodiscard]] Status finish_connect() const;

  // Reads available bytes into `buf`; the value is the byte count.
  // kWouldBlock when nothing is available, kClosed on orderly EOF.
  //
  // The read window is the free tail of `buf` (tail_room()), capped at
  // `max_bytes`, so a small request read into a pooled block leaves the
  // block at its size.  Only when the tail is smaller than kMinReadWindow
  // does the window become `max_bytes`, growing `buf`: a request larger
  // than its block, or a buffer with no storage yet.  The window is never
  // initialised (ByteBuffer::prepare), so its size costs nothing per byte.
  static constexpr size_t kMinReadWindow = 2 * 1024;
  Result<size_t> read(ByteBuffer& buf, size_t max_bytes = 64 * 1024);
  // Writes from `buf`, consuming what was sent; kWouldBlock if the socket
  // buffer is full (0 or more bytes may still have been consumed — the
  // returned count says how many).
  Result<size_t> write(ByteBuffer& buf);
  Result<size_t> write(std::string_view data);
  // Scatter-gather write (one syscall for header + body segments).  Sends
  // what fits and returns the byte count; kWouldBlock when nothing could be
  // sent.  The caller consumes the count from its segment queue.
  Result<size_t> writev(const struct iovec* iov, int iovcnt);
  // Zero-copy file transmit: sendfile(2) from `in_fd` at `offset`.  Same
  // partial-send/kWouldBlock contract as writev.
  Result<size_t> sendfile_from(int in_fd, uint64_t offset, size_t count);

  // Accepted sockets inherit TCP_NODELAY from their listener (see
  // TcpListener::listen); only outbound sockets need this call.
  Status set_nodelay(bool on);
  void shutdown_write();
  void close() { fd_.reset(); }

  [[nodiscard]] Result<InetAddress> local_address() const;
  [[nodiscard]] Result<InetAddress> peer_address() const;

 private:
  Fd fd_;
  std::optional<InetAddress> peer_;
};

class TcpListener {
 public:
  TcpListener() = default;

  // Binds (with SO_REUSEADDR) and listens, with TCP_NODELAY set for the
  // accepted sockets to inherit.  A small backlog reproduces
  // Apache-style SYN drops under overload (see DESIGN.md, Fig. 4); the
  // default is sized for accept bursts, not for that experiment.
  static Result<TcpListener> listen(const InetAddress& addr, int backlog = 512);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool valid() const { return fd_.valid(); }

  // Accepts one connection (non-blocking); the socket is already O_NONBLOCK.
  Result<TcpSocket> accept();
  // Connections waiting in the accept queue right now (0 if unknown): the
  // Acceptor accepts exactly this many more after its first accept, so a
  // drain never ends in a failed accept4.
  [[nodiscard]] size_t pending() const;

  // The actual bound address (resolves port 0 to the kernel-chosen port).
  [[nodiscard]] Result<InetAddress> local_address() const;

  void close() { fd_.reset(); }

 private:
  explicit TcpListener(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
};

}  // namespace cops::net
