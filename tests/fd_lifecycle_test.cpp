// Accept / fd-lifecycle bugfix regressions:
//
//   * EMFILE accept storm — the reserve-descriptor shed plus the
//     suspend-and-timer-resume backstop: the pending client gets a prompt
//     close instead of hanging in the listen queue, reactor wakeups stay
//     bounded while descriptors are exhausted, and accepting resumes once
//     they free up.
//   * CLOEXEC everywhere — a fork+exec'd child must inherit no server
//     descriptors (listeners, connections, epoll, eventfd, and any
//     io_uring ring a future backend might open).
//   * load_file TOCTOU — size/mtime must come from the same descriptor
//     that gets served, even when the path is swapped between any
//     stat-like step and the open.
//   * accept EINTR — a signal-interrupted accept4 retries instead of
//     surfacing a spurious error to the Acceptor.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/http_server.hpp"
#include "net/acceptor.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "nserver/file_io_service.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

// ---- EMFILE accept storm -------------------------------------------------

class FdExhaustionTest : public ::testing::Test {
 protected:
  void TearDown() override { release_burned(); }

  // Opens /dev/null until the process is out of descriptors.
  void burn_all_fds() {
    while (true) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) break;
      burned_.push_back(fd);
    }
  }

  void release_burned() {
    for (int fd : burned_) ::close(fd);
    burned_.clear();
  }

  std::vector<int> burned_;
};

TEST_F(FdExhaustionTest, ShedsPendingClientAndResumesAfterBackoff) {
  net::Reactor reactor;
  std::atomic<int> accepted{0};
  std::vector<net::TcpSocket> kept;  // reactor-thread confined
  net::Acceptor acceptor(reactor, [&](net::TcpSocket socket) {
    ++accepted;
    kept.push_back(std::move(socket));
  });
  acceptor.set_exhaustion_backoff_ms(50);
  auto bound = acceptor.open("127.0.0.1", 0, /*backlog=*/16);
  ASSERT_TRUE(bound.is_ok());
  const uint16_t port = bound.value();
  reactor.start_thread("fd-exhaustion");

  // Park the listener so the victim connection queues in the kernel while
  // we exhaust the descriptor table.
  {
    std::promise<void> parked;
    reactor.post([&] {
      ASSERT_TRUE(acceptor.suspend().is_ok());
      parked.set_value();
    });
    parked.get_future().wait();
  }
  test::BlockingClient victim;
  ASSERT_TRUE(victim.connect("127.0.0.1", port));
  // A second victim queues behind the first; it must connect while this
  // process still has descriptors for the client socket.
  test::BlockingClient second_victim;
  ASSERT_TRUE(second_victim.connect("127.0.0.1", port));
  // Warm UBSan's dynamic-type cache for the promise specialization the
  // post-exhaustion probe uses: the sanitizer's cold-path vptr probe needs
  // a pipe, and at zero free descriptors that pipe cannot be created, so a
  // perfectly valid object would be reported as having an invalid vptr.
  {
    std::promise<std::pair<uint64_t, uint64_t>> warmup;
    warmup.set_value({0, 0});
    (void)warmup.get_future().get();
  }
  burn_all_fds();
  {
    std::promise<void> resumed;
    reactor.post([&] {
      ASSERT_TRUE(acceptor.resume().is_ok());
      resumed.set_value();
    });
    resumed.get_future().wait();
  }

  // The reserve-descriptor trick must accept-then-close the victim: a
  // prompt EOF, not a listen-queue hang.  (Pre-fix, accept just failed and
  // the victim stayed queued until it timed out.)
  EXPECT_TRUE(victim.read_some(1, 3000).empty())
      << "shed connection not promptly closed";

  // Backstop: the listener is deregistered, so wakeups are bounded while
  // the exhaustion lasts.  Overflow handling may tick once per 50 ms
  // resume attempt but must not spin.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::promise<std::pair<uint64_t, uint64_t>> probe;
  reactor.post([&] {
    probe.set_value({acceptor.overflow_events(), acceptor.shed_count()});
  });
  const auto [overflows, shed] = probe.get_future().get();
  EXPECT_GE(overflows, 1u);
  EXPECT_GE(shed, 1u);
  EXPECT_LE(overflows, 10u)
      << "unbounded wakeups: the level-triggered listener is spinning";

  // Recovery: free the descriptors and the resume timer re-registers the
  // listener; new connections are accepted again.
  release_burned();
  for (int i = 0; i < 50 && accepted.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  test::BlockingClient survivor;
  ASSERT_TRUE(survivor.connect("127.0.0.1", port));
  for (int i = 0; i < 50 && accepted.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(accepted.load(), 1) << "accepting never resumed after recovery";

  std::promise<void> closed;
  reactor.post([&] {
    kept.clear();
    acceptor.close();
    closed.set_value();
  });
  closed.get_future().wait();
  reactor.stop();
  reactor.join();
}

// ---- CLOEXEC sweep -------------------------------------------------------

TEST(CloexecTest, ForkedChildInheritsNoServerDescriptors) {
  test::TempDir dir;
  dir.write_file("f.txt", "cloexec probe\n");
  auto options = http::CopsHttpServer::default_options();
  options.dispatcher_threads = 2;  // several epoll/eventfd/listener fds
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());
  // A live accepted connection too, so per-connection fds are in play.
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_FALSE(test::http_get(server.port(), "/f.txt", true, &client).empty());

  // fork+exec (popen runs /bin/sh) and inventory every descriptor the
  // child ended up with, one "<fd> <target>" line each.  Server-side fds
  // are all O_CLOEXEC, so none of socket/eventpoll/eventfd/io_uring may
  // appear past the stdio range.  Fds 0-2 are excluded: stdio is inherited
  // from the test runner by design, and some harnesses (ctest under a
  // wrapper) hand the test a socketpair as stdin.
  FILE* pipe = ::popen(
      "for f in /proc/self/fd/*; do echo \"${f##*/} $(readlink \"$f\")\"; "
      "done 2>/dev/null",
      "r");
  ASSERT_NE(pipe, nullptr);
  std::string all_fds;
  std::string child_fds;
  char buf[256];
  while (::fgets(buf, sizeof buf, pipe) != nullptr) {
    all_fds += buf;
    const long fd_num = std::strtol(buf, nullptr, 10);
    if (fd_num <= 2) continue;
    child_fds += buf;
  }
  ::pclose(pipe);

  // Stdio always exists, so an empty inventory means the probe never ran.
  // An empty *filtered* inventory is a pass: nothing leaked past stdio.
  ASSERT_FALSE(all_fds.empty());
  EXPECT_EQ(child_fds.find("socket:"), std::string::npos)
      << "child inherited a socket:\n" << child_fds;
  EXPECT_EQ(child_fds.find("eventpoll"), std::string::npos)
      << "child inherited an epoll instance:\n" << child_fds;
  EXPECT_EQ(child_fds.find("eventfd"), std::string::npos)
      << "child inherited an eventfd:\n" << child_fds;
  // The server opens no ring today; this guards against one coming back
  // without CLOEXEC.
  EXPECT_EQ(child_fds.find("io_uring"), std::string::npos)
      << "child inherited an io_uring instance:\n" << child_fds;
  server.stop();
}

// ---- load_file TOCTOU ----------------------------------------------------

class ToctouTest : public ::testing::Test {
 protected:
  void TearDown() override {
    nserver::FileIoService::set_test_pre_open_hook(nullptr);
  }

  static void set_mtime(const std::string& path, time_t seconds) {
    struct utimbuf times{seconds, seconds};
    ASSERT_EQ(::utime(path.c_str(), &times), 0);
  }
};

TEST_F(ToctouTest, SwappedFileServesConsistentBytesSizeAndMtime) {
  test::TempDir dir;
  const std::string path = (dir.path() / "swap.txt").string();
  dir.write_file("swap.txt", "OLD");
  set_mtime(path, 1000000);

  // The hook fires right before ::open — after any point where metadata
  // could have been captured from the original file.  Pre-fix, load_file
  // stat'ed first and read second: it would report the OLD mtime and OLD
  // size with whatever bytes the NEW file supplied (truncated/padded).
  bool swapped = false;
  nserver::FileIoService::set_test_pre_open_hook(
      [&](const std::string& hooked) {
        if (swapped || hooked != path) return;
        swapped = true;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "REPLACEMENT-CONTENT";
        out.close();
        set_mtime(path, 2000000);
      });

  auto result = nserver::FileIoService::load_file(path);
  ASSERT_TRUE(swapped);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& data = *result.value();
  // Everything must describe the file that was actually served.
  EXPECT_EQ(data.bytes, "REPLACEMENT-CONTENT");
  EXPECT_EQ(data.size(), data.bytes.size());
  EXPECT_EQ(data.mtime_seconds, 2000000);
}

TEST_F(ToctouTest, SwappedSendfileLoadDescribesTheServedDescriptor) {
  test::TempDir dir;
  const std::string path = (dir.path() / "big.bin").string();
  dir.write_file("big.bin", std::string(512, 'o'));  // below the threshold
  constexpr size_t kGrownBytes = nserver::kSendfileMinBytes + 8192;

  bool swapped = false;
  nserver::FileIoService::set_test_pre_open_hook(
      [&](const std::string& hooked) {
        if (swapped || hooked != path) return;
        swapped = true;
        // Grow past the sendfile threshold: the decision and the size must
        // both come from the opened descriptor.
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << std::string(kGrownBytes, 'n');
      });

  auto result = nserver::FileIoService::load_file(path);
  ASSERT_TRUE(swapped);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& data = *result.value();
  ASSERT_GE(data.fd, 0) << "post-swap size is sendfile-eligible";
  EXPECT_EQ(data.fd_size, kGrownBytes);
  struct stat st{};
  ASSERT_EQ(::fstat(data.fd, &st), 0);
  EXPECT_EQ(static_cast<uint64_t>(st.st_size), data.fd_size)
      << "advertised size diverges from the descriptor being served";
}

}  // namespace
}  // namespace cops

// ---- accept EINTR (simulated signal storm) -------------------------------

namespace cops::simnet {
namespace {

TEST(AcceptEintrTest, InterruptedAcceptRetriesWithinOneDispatch) {
  FaultPlan plan;
  plan.accept_eintr = 0.9;  // per-attempt, seeded: the retry loop terminates
  SimEngine engine(/*seed=*/7, plan);
  test::TempDir dir;
  dir.write_file("a.txt", "eintr alpha\n");

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8090;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  ASSERT_TRUE(server.start().is_ok());

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(1), [client] { client->connect(8090); });
  engine.at(std::chrono::milliseconds(2), [client] {
    client->send("GET /a.txt HTTP/1.1\r\nHost: sim\r\n"
                 "Connection: close\r\n\r\n");
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(120))) << engine.trace_text();
  server.stop();

  // The fault fired and the connection was still served: sys_accept
  // retried the EINTR inside the dispatch instead of surfacing it.
  bool fault_injected = false;
  for (const auto& line : engine.trace()) {
    if (line.find("fault accept-eintr") != std::string::npos) {
      fault_injected = true;
      break;
    }
  }
  EXPECT_TRUE(fault_injected) << "scenario never exercised the EINTR path";
  EXPECT_NE(client->received().find("200 OK"), std::string::npos);
  EXPECT_NE(client->received().find("eintr alpha"), std::string::npos);
  EXPECT_TRUE(client->peer_closed());
}

}  // namespace
}  // namespace cops::simnet
