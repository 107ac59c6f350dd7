// Tests for the distributed N-Server front end (the paper's Section VI
// future work): the TCP relay data plane and the load-balancing control
// plane, including a full distributed COPS-HTTP cluster on loopback.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>

#include "cluster/load_balancer.hpp"
#include "http/http_server.hpp"
#include "loadgen/http_client.hpp"
#include "tests/test_util.hpp"

namespace cops::cluster {
namespace {

// Simple echo backend for relay tests: accepts one connection, echoes all
// bytes until EOF, then closes.
class EchoBackend {
 public:
  EchoBackend() {
    auto listener = net::TcpListener::listen(net::InetAddress::loopback(0), 16);
    EXPECT_TRUE(listener.is_ok());
    listener_ = std::move(listener).take();
    thread_ = std::thread([this] { run(); });
  }
  ~EchoBackend() {
    // Join before closing: the run() thread polls the (non-blocking)
    // listener, so closing it concurrently would race Fd::reset/get.
    running_ = false;
    if (thread_.joinable()) thread_.join();
    listener_.close();
  }
  [[nodiscard]] uint16_t port() {
    return listener_.local_address().value().port();
  }
  [[nodiscard]] int connections() const { return connections_.load(); }

 private:
  void run() {
    while (running_.load()) {
      auto client = listener_.accept();
      if (!client.is_ok()) {
        if (!running_.load()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      connections_.fetch_add(1);
      // Blocking-ish echo until EOF.
      auto sock = std::move(client).take();
      ByteBuffer buf;
      const auto deadline = now() + std::chrono::seconds(5);
      while (running_.load() && now() < deadline) {
        auto n = sock.read(buf);
        if (n.is_ok()) {
          sock.write(buf);
          continue;
        }
        if (n.status().code() == StatusCode::kClosed) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sock.close();
    }
  }

  net::TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> running_{true};
  std::atomic<int> connections_{0};
};

TEST(LoadBalancer, RequiresBackends) {
  LoadBalancer balancer({});
  EXPECT_FALSE(balancer.start().is_ok());
}

// backend_stats() hops onto the balancer's reactor only while its loop runs:
// before start() and after stop() it reads the stats inline.  Each call is
// bounded, so a call that parks on a loop that is not running fails the test
// instead of hanging it (the parked call is left holding the balancer).
TEST(LoadBalancer, BackendStatsAnswersBeforeStartAndAfterStop) {
  auto balancer = std::make_shared<LoadBalancer>(LoadBalancerConfig{});
  balancer->add_backend(net::InetAddress::loopback(1));
  auto stats_within_5s = [](std::shared_ptr<LoadBalancer> b) {
    auto call =
        std::async(std::launch::async, [b] { return b->backend_stats(); });
    if (call.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      new auto(std::move(call));  // never joined: the call never returns
      return std::vector<BackendStats>{};
    }
    return call.get();
  };
  EXPECT_EQ(stats_within_5s(balancer).size(), 1u) << "before start()";
  ASSERT_TRUE(balancer->start().is_ok());
  EXPECT_EQ(stats_within_5s(balancer).size(), 1u) << "while running";
  balancer->stop();
  EXPECT_EQ(stats_within_5s(balancer).size(), 1u) << "after stop()";
}

TEST(LoadBalancer, RelaysBytesBothWays) {
  EchoBackend backend;
  LoadBalancerConfig config;
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(backend.port()));
  ASSERT_TRUE(balancer.start().is_ok());

  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", balancer.port()));
  ASSERT_TRUE(client.send_all("through the relay"));
  EXPECT_EQ(client.read_some(17), "through the relay");
  // Half-close propagates: shutting down our write ends the echo loop and
  // the relay closes our read side.
  client.shutdown_write();
  EXPECT_EQ(client.read_some(0, 2000), "");
  balancer.stop();
  EXPECT_EQ(balancer.total_sessions(), 1u);
}

TEST(LoadBalancer, RoundRobinSpreadsAcrossBackends) {
  EchoBackend a;
  EchoBackend b;
  LoadBalancerConfig config;
  config.policy = BalancePolicy::kRoundRobin;
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(a.port()));
  balancer.add_backend(net::InetAddress::loopback(b.port()));
  ASSERT_TRUE(balancer.start().is_ok());

  for (int i = 0; i < 6; ++i) {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", balancer.port()));
    client.send_all("x");
    EXPECT_EQ(client.read_some(1), "x");
    client.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto stats = balancer.backend_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].connections, 3u);
  EXPECT_EQ(stats[1].connections, 3u);
  balancer.stop();
}

TEST(LoadBalancer, SkipsDeadBackend) {
  // Backend 0 is a dead port; every client must land on backend 1.
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().local_address().value().port();
  }
  EchoBackend alive;
  LoadBalancerConfig config;
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(dead_port));
  balancer.add_backend(net::InetAddress::loopback(alive.port()));
  ASSERT_TRUE(balancer.start().is_ok());

  for (int i = 0; i < 4; ++i) {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", balancer.port()));
    client.send_all("y");
    EXPECT_EQ(client.read_some(1), "y") << "client " << i;
    client.close();
  }
  const auto stats = balancer.backend_stats();
  EXPECT_EQ(stats[1].connections, 4u);
  EXPECT_GT(stats[0].connect_failures, 0u);
  balancer.stop();
}

TEST(LoadBalancer, AllBackendsDeadDropsClient) {
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().local_address().value().port();
  }
  LoadBalancerConfig config;
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(dead_port));
  ASSERT_TRUE(balancer.start().is_ok());
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", balancer.port()));
  // The balancer closes us once the backend refuses.
  EXPECT_EQ(client.read_some(0, 2000), "");
  for (int i = 0; i < 300 && balancer.dropped_clients() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(balancer.dropped_clients(), 1u);
  balancer.stop();
}

// ---- the distributed COPS-HTTP cluster -------------------------------------------

TEST(DistributedNServer, BalancerPlusTwoWorkersServeHttp) {
  test::TempDir docs;
  docs.write_file("page.html", std::string(800, 'd'));

  // Two worker COPS-HTTP servers (standing in for the paper's "network of
  // workstations" — see DESIGN.md substitutions).
  http::HttpServerConfig worker_config;
  worker_config.doc_root = docs.str();
  http::CopsHttpServer worker_a(http::CopsHttpServer::default_options(),
                                worker_config);
  http::CopsHttpServer worker_b(http::CopsHttpServer::default_options(),
                                worker_config);
  ASSERT_TRUE(worker_a.start().is_ok());
  ASSERT_TRUE(worker_b.start().is_ok());

  LoadBalancerConfig config;
  config.policy = BalancePolicy::kLeastConnections;
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(worker_a.port()));
  balancer.add_backend(net::InetAddress::loopback(worker_b.port()));
  ASSERT_TRUE(balancer.start().is_ok());

  // Drive the cluster through the load generator.
  loadgen::ClientConfig load;
  load.server = net::InetAddress::loopback(balancer.port());
  load.num_clients = 8;
  load.think_time = std::chrono::milliseconds(2);
  // Generous relative to the >40-responses assertion so the test also holds
  // under sanitizer slowdowns (TSan runs ~10x slower).
  load.duration = std::chrono::milliseconds(1500);
  load.path_for = [](size_t, std::mt19937&) { return "/page.html"; };
  const auto stats = loadgen::run_clients(load);

  EXPECT_GT(stats.total_responses, 40u);
  EXPECT_GT(stats.jain_fairness(), 0.8);
  // Both workers served traffic.
  const auto backend_stats = balancer.backend_stats();
  EXPECT_GT(backend_stats[0].connections, 0u);
  EXPECT_GT(backend_stats[1].connections, 0u);
  const auto profile_a = worker_a.hooks().responses_sent();
  const auto profile_b = worker_b.hooks().responses_sent();
  EXPECT_GT(profile_a, 0u);
  EXPECT_GT(profile_b, 0u);

  balancer.stop();
  worker_a.stop();
  worker_b.stop();
}

}  // namespace
}  // namespace cops::cluster
