// Real-socket tests for a multi-shard server (O1 = 4): the single listener
// dispatches round-robin, every accept is accounted on its shard, the
// connection caps hold under racing clients, and the per-shard gauges reach
// the admin surface.  The TSan preset runs this suite.
#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/http_server.hpp"
#include "net/socket.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

using http::CopsHttpServer;
using http::HttpServerConfig;
using nserver::ServerOptions;

// ---- net layer ------------------------------------------------------------

TEST(TcpListenerTest, BacklogParameterAccepted) {
  // The listen_backlog satellite: the knob must reach listen(2) unclamped
  // by any hardcoded constant.  A bad value is all the kernel would reject,
  // so this is a plumbing check, not a capacity measurement.
  const auto addr = net::InetAddress::parse("127.0.0.1", 0);
  ASSERT_TRUE(addr.is_ok());
  for (const int backlog : {1, 128, 1024, 4096}) {
    auto listener = net::TcpListener::listen(addr.value(), backlog);
    EXPECT_TRUE(listener.is_ok()) << "backlog " << backlog;
  }
}

// ---- server fixture ---------------------------------------------------------

class ScaleoutFixture : public ::testing::Test {
 protected:
  void start_server(ServerOptions options) {
    docs_ = std::make_unique<test::TempDir>();
    docs_->write_file("index.html", "<html>scaleout</html>");
    options.listen_port = 0;
    HttpServerConfig config;
    config.doc_root = docs_->str();
    server_ = std::make_unique<CopsHttpServer>(std::move(options), config);
    auto status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    port_ = server_->port();
  }

  static ServerOptions sharded_options(int shards) {
    auto options = CopsHttpServer::default_options();
    options.dispatcher_threads = shards;
    options.profiling = true;
    return options;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<test::TempDir> docs_;
  std::unique_ptr<CopsHttpServer> server_;
  uint16_t port_ = 0;
};

TEST_F(ScaleoutFixture, DispatchServesAndAccountsEveryConnection) {
  start_server(sharded_options(4));
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    const auto response = test::http_get(port_, "/index.html");
    ASSERT_NE(response.find("200 OK"), std::string::npos) << "request " << i;
  }
  // No accept may escape the per-shard gauges.
  const auto snapshot = server_->server().stats_snapshot();
  ASSERT_EQ(snapshot.shards.size(), 4u);
  uint64_t total = 0;
  for (const auto& shard : snapshot.shards) total += shard.accepts;
  EXPECT_EQ(total, static_cast<uint64_t>(kRequests));
}

// One blocking client per thread; admitted connections are held open until
// every thread has classified its outcome, so the cap cannot be laundered
// through early closes.  Returns how many clients got a 200.
int race_connections(uint16_t port, int clients) {
  std::atomic<int> admitted{0};
  std::latch classified(clients);
  std::latch hold(1);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      test::BlockingClient client;
      const bool connected = client.connect("127.0.0.1", port);
      std::string response;
      if (connected) {
        response = test::http_get(port, "/index.html", /*keep_alive=*/true,
                                  &client);
      }
      if (response.find("200 OK") != std::string::npos) {
        admitted.fetch_add(1);
      }
      classified.count_down();
      hold.wait();  // keep the admitted slots occupied
    });
  }
  classified.wait();
  hold.count_down();
  for (auto& t : threads) t.join();
  return admitted.load();
}

TEST_F(ScaleoutFixture, MaxConnectionsCapHoldsAcrossRacingAcceptors) {
  // Twelve clients race the single acceptor of a four-shard server; the
  // global cap must hold exactly while admitted connections live on every
  // shard.
  auto options = sharded_options(4);
  options.max_connections = 3;
  start_server(options);

  EXPECT_EQ(race_connections(port_, 12), 3);
  const auto profile = server_->server().profile();
  EXPECT_EQ(profile.connections_rejected, 9u);
  // Every admitted connection has closed by now; the slots drain back.
  for (int i = 0; i < 200 && server_->server().connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->server().connection_count(), 0u);
  // The cap is a gate, not a latch: new connections are admitted again.
  EXPECT_NE(test::http_get(port_, "/index.html").find("200 OK"),
            std::string::npos);
}

TEST_F(ScaleoutFixture, PerIpCapHoldsAcrossRacingAcceptors) {
  auto options = sharded_options(4);
  options.max_connections_per_ip = 2;
  start_server(options);

  EXPECT_EQ(race_connections(port_, 8), 2);
  EXPECT_EQ(server_->server().profile().per_ip_rejections, 6u);
}

// ---- observability: shard label end to end ---------------------------------

TEST_F(ScaleoutFixture, AdminExportsShardGauges) {
  auto options = sharded_options(2);
  options.stats_export = nserver::StatsExport::kAdminHttp;
  options.admin_port = 0;
  start_server(options);
  const uint16_t admin_port = server_->admin_port();
  ASSERT_NE(admin_port, 0);

  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(test::http_get(port_, "/index.html").find("200 OK"),
              std::string::npos);
  }

  const auto stats = test::http_get(admin_port, "/stats");
  for (const char* metric : {"nserver_shard_accepts_total{shard=\"0\"}",
                             "nserver_shard_accepts_total{shard=\"1\"}",
                             "nserver_shard_connections_open{shard=\"0\"}"}) {
    EXPECT_NE(stats.find(metric), std::string::npos) << metric;
  }

  const auto json = test::http_get(admin_port, "/stats.json");
  for (const char* token : {"\"shards\":[", "\"accepts\""}) {
    EXPECT_NE(json.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace cops
