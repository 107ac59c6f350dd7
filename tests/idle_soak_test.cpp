// perf-smoke: what an idle keep-alive connection costs the server.
//
// This TU provides the operator-new interposer (COPS_ALLOC_COUNTER_IMPLEMENT)
// and reads its process-wide live-heap count.  It runs the COPS-HTTP preset
// on loopback, opens kConnections client sockets, and asserts the live heap
// per connection twice: while the connections have sent nothing, and after
// each has sent one GET, read its reply and gone idle.  A connection holds
// a read block only while a request is in flight, so neither figure may
// include one (a block is 16 KiB).  A second test churns 300 connections
// through one shard and checks the pools' live-bytes gauge falls back.
#define COPS_ALLOC_COUNTER_IMPLEMENT
#include "bench/alloc_counter.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/http_server.hpp"
#include "tests/test_util.hpp"

namespace cops::bench {
namespace {

constexpr size_t kConnections = 2000;
constexpr double kMaxBytesPerIdleConnection = 2 * 1024;

// Raises the soft descriptor limit to the hard one; false when even that
// cannot hold both ends of every connection.
bool enough_descriptors(size_t needed) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
    ::getrlimit(RLIMIT_NOFILE, &limit);
  }
  return limit.rlim_cur == RLIM_INFINITY || limit.rlim_cur >= needed;
}

int connect_blocking(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one keep-alive GET and reads the whole reply, which ends with
// `body` (the reply head carries Content-Length, the body follows it).
bool get_once(int fd, const std::string& body) {
  static const std::string kRequest =
      "GET /index.html HTTP/1.1\r\nHost: soak\r\n\r\n";
  if (::send(fd, kRequest.data(), kRequest.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(kRequest.size())) {
    return false;
  }
  char buf[4096];
  std::string reply;
  while (reply.size() < body.size() ||
         reply.compare(reply.size() - body.size(), body.size(), body) != 0) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    reply.append(buf, static_cast<size_t>(n));
  }
  return reply.rfind("HTTP/1.1 200", 0) == 0;
}

// Waits until the server has settled: the live heap stops moving.
int64_t settled_live_heap() {
  int64_t last = live_heap_bytes();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int64_t now_live = live_heap_bytes();
    if (now_live == last) break;
    last = now_live;
  }
  return last;
}

TEST(IdleSoakTest, IdleConnectionsHoldNoReadBuffer) {
  if (!enough_descriptors(2 * kConnections + 256)) {
    GTEST_SKIP() << "RLIMIT_NOFILE cannot hold " << 2 * kConnections
                 << " descriptors";
  }
  test::TempDir dir;
  const std::string body = "<html>idle soak</html>";
  dir.write_file("index.html", body);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());
  const uint16_t port = server.port();

  // Warm-up on a connection of its own: the file is cached and the shard's
  // pools hold what one request needs, so no later figure counts them.
  {
    const int fd = connect_blocking(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(get_once(fd, body));
    ::close(fd);
  }
  for (int i = 0; i < 500 && server.server().connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::vector<int> fds;
  fds.reserve(kConnections);
  const int64_t before = settled_live_heap();

  for (size_t i = 0; i < kConnections; ++i) {
    const int fd = connect_blocking(port);
    ASSERT_GE(fd, 0) << "connection " << i;
    fds.push_back(fd);
    // Keep the acceptor's backlog short of overflowing.
    if (i % 256 == 255) {
      for (int w = 0; w < 500 && server.server().connection_count() <= i;
           ++w) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  for (int i = 0;
       i < 1000 && server.server().connection_count() < kConnections; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.server().connection_count(), kConnections);
  const double silent_per_connection =
      static_cast<double>(settled_live_heap() - before) / kConnections;

  for (size_t i = 0; i < kConnections; ++i) {
    ASSERT_TRUE(get_once(fds[i], body)) << "connection " << i;
  }
  const double idle_per_connection =
      static_cast<double>(settled_live_heap() - before) / kConnections;

  RecordProperty("silent_bytes_per_connection",
                 std::to_string(silent_per_connection));
  RecordProperty("idle_bytes_per_connection",
                 std::to_string(idle_per_connection));
  EXPECT_LE(silent_per_connection, kMaxBytesPerIdleConnection)
      << "live heap per connection that never sent a byte";
  EXPECT_LE(idle_per_connection, kMaxBytesPerIdleConnection)
      << "live heap per keep-alive connection idle after one GET";

  for (const int fd : fds) ::close(fd);
  server.stop();
}

// Connection churn must not walk the pools' heap gauge (what the adaptive
// heap_bytes monitor reads) towards its budget: blocks freed past the pool's
// retention leave the gauge, while the heap counter keeps them.
TEST(IdleSoakTest, ChurnedReadBlocksLeaveTheLiveGauge) {
  constexpr size_t kHolders = 300;
  constexpr uint64_t kBlock = 16 * 1024;  // the server's read block
  constexpr uint64_t kRetained = 64;      // BufferPool's default max_free
  if (!enough_descriptors(2 * kHolders + 256)) {
    GTEST_SKIP() << "RLIMIT_NOFILE cannot hold " << 2 * kHolders
                 << " descriptors";
  }
  test::TempDir dir;
  dir.write_file("index.html", "<html>churn</html>");
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  ASSERT_EQ(options.dispatcher_threads, 1);  // one shard, one pool
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());
  auto& core = server.server();

  // Each connection sends half a request, so its read block stays with it.
  std::vector<int> fds;
  for (size_t i = 0; i < kHolders; ++i) {
    const int fd = connect_blocking(server.port());
    ASSERT_GE(fd, 0) << "connection " << i;
    const std::string half = "GET /index.html HTTP/1.1\r\nHost: churn\r\n";
    ASSERT_EQ(::send(fd, half.data(), half.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(half.size()));
    fds.push_back(fd);
  }
  for (int i = 0; i < 1000 && core.profile().pool_live_bytes <
                                   kHolders * kBlock; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto held = core.profile();
  ASSERT_GE(held.pool_live_bytes, kHolders * kBlock);

  for (const int fd : fds) ::close(fd);
  for (int i = 0; i < 1000 && core.connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(core.connection_count(), 0u);
  const auto after = core.profile();
  RecordProperty("live_bytes_held", std::to_string(held.pool_live_bytes));
  RecordProperty("live_bytes_after", std::to_string(after.pool_live_bytes));
  // The counter keeps every block it ever made ...
  EXPECT_GE(after.pool_alloc_bytes, kHolders * kBlock);
  // ... while the gauge drops every read block past the retained free list:
  // what is left is that free list plus the context slab.
  const uint64_t context_slab = held.pool_live_bytes - kHolders * kBlock;
  EXPECT_LE(after.pool_live_bytes, kRetained * kBlock + context_slab);
  server.stop();
}

}  // namespace
}  // namespace cops::bench
