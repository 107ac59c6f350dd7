// Shared test helpers: blocking mini-clients and temp directories.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

namespace cops::test {

// A blocking TCP client for exercising servers from test threads.
class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient() { close(); }

  bool connect(const std::string& host, uint16_t port,
               int timeout_ms = 2000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return true;
    if (errno != EINTR) return false;
    // Interrupted connect keeps going in the kernel: wait for completion.
    pollfd pfd{fd_, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return false;
    int err = 0;
    socklen_t len = sizeof(err);
    return ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
           err == 0;
  }

  bool send_all(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until the connection closes or `bytes` arrive (bytes=0: til EOF).
  // EINTR is retried: a signal can interrupt the blocking recv, and a
  // -1/EINTR there is not end-of-stream.
  std::string read_some(size_t bytes = 0, int timeout_ms = 2000) {
    std::string out;
    char buf[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (bytes == 0 || out.size() < bytes) {
      if (std::chrono::steady_clock::now() > deadline) break;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  // Reads until `marker` appears in the accumulated data (or timeout).
  std::string read_until(const std::string& marker, int timeout_ms = 2000) {
    std::string out;
    char buf[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (out.find(marker) == std::string::npos) {
      if (std::chrono::steady_clock::now() > deadline) break;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }
  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// Blocking HTTP GET; returns the full raw response (headers + body).
inline std::string http_get(uint16_t port, const std::string& path,
                            bool keep_alive = false,
                            BlockingClient* reuse = nullptr) {
  BlockingClient local;
  BlockingClient* client = reuse != nullptr ? reuse : &local;
  if (reuse == nullptr || reuse->fd() < 0) {
    if (!client->connect("127.0.0.1", port)) return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: test\r\nConnection: " +
      (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
  if (!client->send_all(request)) return {};
  if (!keep_alive) return client->read_some();
  // keep-alive: read headers, find content-length, read exactly the body.
  std::string data = client->read_until("\r\n\r\n");
  const size_t header_end = data.find("\r\n\r\n");
  if (header_end == std::string::npos) return data;
  size_t content_length = 0;
  const std::string lower = [&] {
    std::string s = data.substr(0, header_end);
    for (auto& c : s) c = static_cast<char>(::tolower(c));
    return s;
  }();
  const size_t cl = lower.find("content-length:");
  if (cl != std::string::npos) {
    content_length = static_cast<size_t>(
        std::strtoul(lower.c_str() + cl + 15, nullptr, 10));
  }
  const size_t want = header_end + 4 + content_length;
  while (data.size() < want) {
    auto more = client->read_some(want - data.size());
    if (more.empty()) break;
    data += more;
  }
  return data;
}

// Self-deleting temporary directory.
class TempDir {
 public:
  TempDir() {
    auto base = std::filesystem::temp_directory_path();
    std::mt19937_64 rng(std::random_device{}());
    path_ = base / ("cops_test_" + std::to_string(rng()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

  void write_file(const std::string& relative, const std::string& content) {
    const auto full = path_ / relative;
    std::filesystem::create_directories(full.parent_path());
    std::ofstream out(full, std::ios::binary);
    out << content;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace cops::test
