// Remaining coverage: the logger, the poller, and socket edge cases.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <thread>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

// ---- Logger ------------------------------------------------------------------

TEST(Logger, LevelGatesOutput) {
  auto& logger = Logger::instance();
  logger.set_level(LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.set_level(LogLevel::kOff);
  EXPECT_FALSE(logger.enabled(LogLevel::kError));
  logger.set_level(LogLevel::kWarn);  // restore default
}

// The logger writes to stderr; a deployment that wants a log file points
// stderr at one, as this test does.
TEST(Logger, WritesToFile) {
  test::TempDir dir;
  const std::string path = dir.str() + "/app.log";
  const int log_fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  ASSERT_GE(log_fd, 0);
  const int saved_stderr = ::dup(STDERR_FILENO);
  ASSERT_GE(saved_stderr, 0);
  ASSERT_EQ(::dup2(log_fd, STDERR_FILENO), STDERR_FILENO);
  ::close(log_fd);
  auto& logger = Logger::instance();
  logger.set_level(LogLevel::kInfo);
  COPS_INFO("hello from the test " << 42);
  logger.set_level(LogLevel::kWarn);
  ::dup2(saved_stderr, STDERR_FILENO);
  ::close(saved_stderr);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("hello from the test 42"), std::string::npos);
  EXPECT_NE(contents.find("INFO"), std::string::npos);
}

// ---- Poller ------------------------------------------------------------------

TEST(Poller, AddModifyRemove) {
  net::Poller poller;
  ASSERT_TRUE(poller.valid());
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  EXPECT_TRUE(poller.add(listener.value().fd(), net::kReadable).is_ok());
  EXPECT_TRUE(poller.modify(listener.value().fd(), net::kWritable).is_ok());
  EXPECT_TRUE(poller.remove(listener.value().fd()).is_ok());
  // Double remove fails cleanly.
  EXPECT_FALSE(poller.remove(listener.value().fd()).is_ok());
}

TEST(Poller, ReportsReadableOnPendingConnection) {
  net::Poller poller;
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  ASSERT_TRUE(poller.add(listener.value().fd(), net::kReadable).is_ok());
  test::BlockingClient client;
  ASSERT_TRUE(client.connect(
      "127.0.0.1", listener.value().local_address().value().port()));
  std::vector<net::ReadyFd> ready;
  auto n = poller.wait(ready, 1000);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(ready[0].fd, listener.value().fd());
  EXPECT_TRUE((ready[0].events & net::kReadable) != 0);
}

TEST(Poller, TimeoutReturnsZero) {
  net::Poller poller;
  std::vector<net::ReadyFd> ready;
  const auto start = now();
  auto n = poller.wait(ready, 30);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 0u);
  EXPECT_GE(to_millis(now() - start), 25);
}

// ---- socket edge cases ----------------------------------------------------------

TEST(Socket, WriteToClosedPeerReportsClosed) {
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  test::BlockingClient client;
  ASSERT_TRUE(client.connect(
      "127.0.0.1", listener.value().local_address().value().port()));
  Result<net::TcpSocket> accepted = Status::would_block();
  for (int i = 0; i < 200 && !accepted.is_ok(); ++i) {
    accepted = listener.value().accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.is_ok());
  client.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // First write may succeed (fills the kernel buffer of a dead peer);
  // repeated writes must surface kClosed, never crash (SIGPIPE suppressed).
  Status last = Status::ok();
  for (int i = 0; i < 50; ++i) {
    ByteBuffer out{std::string_view("data after close")};
    auto n = accepted.value().write(out);
    if (!n.is_ok()) {
      last = n.status();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(last.code(), StatusCode::kClosed);
}

TEST(Socket, LocalAndPeerAddress) {
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  const uint16_t port = listener.value().local_address().value().port();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  Result<net::TcpSocket> accepted = Status::would_block();
  for (int i = 0; i < 200 && !accepted.is_ok(); ++i) {
    accepted = listener.value().accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.is_ok());
  auto local = accepted.value().local_address();
  auto peer = accepted.value().peer_address();
  ASSERT_TRUE(local.is_ok());
  ASSERT_TRUE(peer.is_ok());
  EXPECT_EQ(local.value().port(), port);
  EXPECT_EQ(local.value().host(), "127.0.0.1");
  EXPECT_EQ(peer.value().host(), "127.0.0.1");
}

}  // namespace
}  // namespace cops
