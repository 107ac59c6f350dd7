#include "ftp/session.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <mutex>

namespace cops::ftp {

Status DataConnection::send_all(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return Status::from_errno("data send");
    sent += static_cast<size_t>(n);
  }
  return Status::ok();
}

Status DataConnection::send_file(int file_fd, uint64_t len) {
  // sendfile has no MSG_NOSIGNAL: a client that drops the data connection
  // mid-transfer must surface as EPIPE, not kill the server.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { std::signal(SIGPIPE, SIG_IGN); });
  off_t offset = 0;
  while (static_cast<uint64_t>(offset) < len) {
    const ssize_t n = ::sendfile(fd_, file_fd, &offset,
                                 static_cast<size_t>(len - offset));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::from_errno("data sendfile");
    if (n == 0) return Status::io_error("data sendfile: unexpected EOF");
  }
  return Status::ok();
}

Result<std::string> DataConnection::read_all(size_t max_bytes) {
  std::string out;
  char buf[16 * 1024];
  while (out.size() < max_bytes) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return out;  // orderly EOF ends the upload
    if (n < 0) return Status::from_errno("data recv");
    out.append(buf, static_cast<size_t>(n));
  }
  return Status::resource_exhausted("upload exceeds limit");
}

void DataConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<uint16_t> FtpSession::enter_passive(const std::string& host) {
  close_pasv();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::from_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::invalid_argument("bad PASV host " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 1) < 0) {
    ::close(fd);
    return Status::from_errno("pasv bind/listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  pasv_fd_ = fd;
  port_target_set_ = false;
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

void FtpSession::close_pasv() {
  if (pasv_fd_ >= 0) {
    ::close(pasv_fd_);
    pasv_fd_ = -1;
  }
}

void FtpSession::set_port_target(std::string host, uint16_t port) {
  close_pasv();
  port_host_ = std::move(host);
  port_port_ = port;
  port_target_set_ = true;
}

Result<DataConnection> FtpSession::open_data_connection(int timeout_ms) {
  if (pasv_fd_ >= 0) {
    pollfd pfd{pasv_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      close_pasv();
      return Status::unavailable("no data connection within timeout");
    }
    const int client = ::accept(pasv_fd_, nullptr, nullptr);
    close_pasv();
    if (client < 0) return Status::from_errno("pasv accept");
    return DataConnection(client);
  }
  if (port_target_set_) {
    port_target_set_ = false;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::from_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_port_);
    if (inet_pton(AF_INET, port_host_.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Status::invalid_argument("bad PORT host");
    }
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return Status::from_errno("active connect");
    }
    return DataConnection(fd);
  }
  return Status::invalid_argument("use PASV or PORT first");
}

}  // namespace cops::ftp
