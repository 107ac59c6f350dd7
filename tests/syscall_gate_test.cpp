// perf-smoke: the syscalls one connection costs the server.
//
// This binary interposes accept4, setsockopt, getpeername, epoll_ctl and
// connect: definitions in the executable take precedence over libc's for
// every call the server libraries make, and each forwards to libc's (the
// technique perfbench/trace.cpp uses).  Calls made on the test's own thread
// — the blocking clients and Server::start() — are not counted, so the
// counts are the server threads' alone.
//
// The COPS-HTTP preset serves K sequential loopback connections, one GET
// each.  Per connection the server makes one accept4 (the accept-queue
// length says when to stop, so no accept4 fails with EAGAIN), one
// epoll_ctl (the ADD; closing the socket removes it from the epoll set),
// no setsockopt (accepted sockets inherit TCP_NODELAY from the listener)
// and no getpeername (accept4 returns the peer address).
#include <dlfcn.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "http/http_server.hpp"
#include "net/socket.hpp"
#include "tests/test_util.hpp"

namespace {

std::atomic<uint64_t> g_accept4{0};
std::atomic<uint64_t> g_setsockopt{0};
std::atomic<uint64_t> g_getpeername{0};
std::atomic<uint64_t> g_epoll_ctl{0};
std::atomic<int> g_last_accepted{-1};
std::atomic<int> g_last_connected{-1};
thread_local bool t_test_thread = false;

template <typename Fn>
Fn next_symbol(const char* name) {
  void* sym = dlsym(RTLD_NEXT, name);
  if (sym == nullptr) std::abort();
  return reinterpret_cast<Fn>(sym);
}

void reset_counts() {
  g_accept4 = 0;
  g_setsockopt = 0;
  g_getpeername = 0;
  g_epoll_ctl = 0;
}

}  // namespace

extern "C" {

int accept4(int fd, sockaddr* addr, socklen_t* len, int flags) {
  static const auto real = next_symbol<decltype(&accept4)>("accept4");
  const int client = real(fd, addr, len, flags);
  if (!t_test_thread) {
    g_accept4.fetch_add(1);
    if (client >= 0) g_last_accepted = client;
  }
  return client;
}

int setsockopt(int fd, int level, int name, const void* value,
               socklen_t len) noexcept {
  static const auto real = next_symbol<decltype(&setsockopt)>("setsockopt");
  if (!t_test_thread) g_setsockopt.fetch_add(1);
  return real(fd, level, name, value, len);
}

int getpeername(int fd, sockaddr* addr, socklen_t* len) noexcept {
  static const auto real = next_symbol<decltype(&getpeername)>("getpeername");
  if (!t_test_thread) g_getpeername.fetch_add(1);
  return real(fd, addr, len);
}

int epoll_ctl(int epfd, int op, int fd, epoll_event* event) noexcept {
  static const auto real = next_symbol<decltype(&epoll_ctl)>("epoll_ctl");
  if (!t_test_thread) g_epoll_ctl.fetch_add(1);
  return real(epfd, op, fd, event);
}

int connect(int fd, const sockaddr* addr, socklen_t len) {
  static const auto real = next_symbol<decltype(&connect)>("connect");
  if (!t_test_thread) g_last_connected = fd;
  return real(fd, addr, len);
}

}  // extern "C"

namespace cops {
namespace {

class SyscallGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t_test_thread = true;
    docs_.write_file("index.html", "<html>gate</html>");
    http::HttpServerConfig config;
    config.doc_root = docs_.str();
    auto options = http::CopsHttpServer::default_options();
    options.listen_port = 0;
    server_ = std::make_unique<http::CopsHttpServer>(options, config);
    ASSERT_TRUE(server_->start().is_ok());
  }
  void TearDown() override { server_->stop(); }

  bool wait_for_connections(size_t n) {
    for (int i = 0; i < 2000; ++i) {
      if (server_->server().connection_count() == n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  static int nodelay(int fd) {
    int on = 0;
    socklen_t len = sizeof(on);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) != 0) return -1;
    return on;
  }

  test::TempDir docs_;
  std::unique_ptr<http::CopsHttpServer> server_;
};

TEST_F(SyscallGateTest, OneAcceptAndOneEpollCtlPerConnection) {
  constexpr uint64_t kConnections = 20;
  // One warm-up connection loads the file into the cache.
  ASSERT_NE(test::http_get(server_->port(), "/index.html").find("200 OK"),
            std::string::npos);
  ASSERT_TRUE(wait_for_connections(0));
  reset_counts();
  for (uint64_t i = 0; i < kConnections; ++i) {
    const auto reply = test::http_get(server_->port(), "/index.html");
    ASSERT_NE(reply.find("<html>gate</html>"), std::string::npos) << i;
    ASSERT_TRUE(wait_for_connections(0)) << i;
  }
  EXPECT_EQ(g_accept4.load(), kConnections);
  EXPECT_EQ(g_epoll_ctl.load(), kConnections);
  EXPECT_EQ(g_setsockopt.load(), 0u);
  EXPECT_EQ(g_getpeername.load(), 0u);
}

TEST_F(SyscallGateTest, AcceptedSocketsInheritNodelay) {
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(wait_for_connections(1));
  const int fd = g_last_accepted.load();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(nodelay(fd), 1);
}

TEST_F(SyscallGateTest, ConnectPeerSocketsSetNodelay) {
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  auto addr = listener.value().local_address();
  ASSERT_TRUE(addr.is_ok());
  reset_counts();
  std::promise<Result<uint64_t>> done;
  server_->server().connect_peer(
      addr.value(), [&](Result<uint64_t> id) { done.set_value(id); });
  auto result = done.get_future();
  ASSERT_EQ(result.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_TRUE(result.get().is_ok());
  const int fd = g_last_connected.load();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(nodelay(fd), 1);
  EXPECT_EQ(g_setsockopt.load(), 1u);  // TCP_NODELAY, once
  EXPECT_EQ(g_getpeername.load(), 0u);
}

}  // namespace
}  // namespace cops
