// End-to-end tests for the O11+ admin/metrics endpoint: a real COPS-HTTP
// server with stats_export enabled, scraped over the second listener; and
// the server's rendering of a fixed snapshot against committed golden files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/http_server.hpp"
#include "loadgen/http_client.hpp"
#include "nserver/stats.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

using http::CopsHttpServer;
using http::HttpServerConfig;
using nserver::ServerOptions;
using nserver::StatsExport;

// Extracts the value of a single-sample Prometheus metric ("name value\n").
long metric_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(text.c_str() + at + needle.size(), nullptr, 10);
}

class AdminFixture : public ::testing::Test {
 protected:
  void start_server(ServerOptions options, HttpServerConfig config = {}) {
    docs_ = std::make_unique<test::TempDir>();
    docs_->write_file("index.html", "<html>home</html>");
    docs_->write_file("a/page.html", std::string(2000, 'p'));
    if (config.doc_root == ".") config.doc_root = docs_->str();
    options.listen_port = 0;
    server_ = std::make_unique<CopsHttpServer>(std::move(options),
                                               std::move(config));
    auto status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    port_ = server_->port();
    admin_port_ = server_->admin_port();
  }

  static ServerOptions admin_options() {
    auto options = CopsHttpServer::default_options();
    options.profiling = true;
    options.stats_export = StatsExport::kAdminHttp;
    options.admin_port = 0;  // kernel-chosen
    return options;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<test::TempDir> docs_;
  std::unique_ptr<CopsHttpServer> server_;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
};

TEST_F(AdminFixture, DisabledByDefault) {
  auto options = CopsHttpServer::default_options();
  options.profiling = true;
  start_server(options);
  EXPECT_EQ(server_->admin_port(), 0);
}

TEST_F(AdminFixture, ExportRequiresProfiling) {
  auto options = CopsHttpServer::default_options();
  options.profiling = false;
  options.stats_export = StatsExport::kAdminHttp;
  CopsHttpServer server(options, {});
  EXPECT_FALSE(server.start().is_ok());
}

TEST_F(AdminFixture, HealthzRespondsOk) {
  start_server(admin_options());
  ASSERT_NE(admin_port_, 0);
  ASSERT_NE(admin_port_, port_);
  const auto response = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST_F(AdminFixture, UnknownPathIs404AndBadMethodIs405) {
  start_server(admin_options());
  EXPECT_NE(test::http_get(admin_port_, "/nope").find("404"),
            std::string::npos);
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", admin_port_));
  client.send_all("POST /stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(client.read_some().find("405"), std::string::npos);
}

TEST_F(AdminFixture, StatsCountersMatchScriptedWorkload) {
  start_server(admin_options());
  constexpr int kRequests = 7;
  for (int i = 0; i < kRequests; ++i) {
    const auto response = test::http_get(port_, "/index.html");
    ASSERT_NE(response.find("200 OK"), std::string::npos);
  }

  const auto response = test::http_get(admin_port_, "/stats");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const auto body = response.substr(response.find("\r\n\r\n") + 4);

  EXPECT_EQ(metric_value(body, "nserver_requests_total"), kRequests);
  EXPECT_EQ(metric_value(body, "nserver_replies_total"), kRequests);
  EXPECT_EQ(metric_value(body, "nserver_connections_accepted_total"),
            kRequests);  // one connection per blocking GET
  EXPECT_GT(metric_value(body, "nserver_bytes_read_total"), 0);
  EXPECT_GT(metric_value(body, "nserver_bytes_sent_total"), 0);
  EXPECT_GE(metric_value(body, "nserver_cache_hits_total"), 1);

  // The stage histogram family is present, with per-stage samples.
  EXPECT_NE(body.find("# TYPE nserver_stage_latency_seconds histogram"),
            std::string::npos);
  for (const char* stage : {"decode", "handle", "encode", "write", "total"}) {
    const std::string count_line = "nserver_stage_latency_seconds_count{stage=\"" +
                                   std::string(stage) + "\"} ";
    const size_t at = body.find(count_line);
    ASSERT_NE(at, std::string::npos) << stage;
    EXPECT_EQ(std::strtol(body.c_str() + at + count_line.size(), nullptr, 10),
              kRequests)
        << stage;
  }
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
}

TEST_F(AdminFixture, StatsJsonAndPerConnectionGauges) {
  start_server(admin_options());
  // A live keep-alive connection with two requests on it.
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port_));
  ASSERT_FALSE(test::http_get(port_, "/index.html", true, &client).empty());
  ASSERT_FALSE(test::http_get(port_, "/a/page.html", true, &client).empty());

  const auto response = test::http_get(admin_port_, "/stats.json");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const auto body = response.substr(response.find("\r\n\r\n") + 4);
  EXPECT_NE(body.find("\"requests\":2"), std::string::npos);
  EXPECT_NE(body.find("\"connections_open\":1"), std::string::npos);
  EXPECT_NE(body.find("\"stages\":"), std::string::npos);
  // The per-connection entry reports its byte/request gauges.
  EXPECT_NE(body.find("\"connections\":[{"), std::string::npos);
  EXPECT_NE(body.find("\"requests\":2}"), std::string::npos);
  EXPECT_NE(body.find("\"peer\":\"127.0.0.1:"), std::string::npos);
}

// The peer address comes from accept4 and is formatted on demand: each
// connection's entry names its own client's address and port.
TEST_F(AdminFixture, StatsJsonNamesEachPeersAddress) {
  start_server(admin_options());
  test::BlockingClient first;
  test::BlockingClient second;
  ASSERT_TRUE(first.connect("127.0.0.1", port_));
  ASSERT_TRUE(second.connect("127.0.0.1", port_));
  ASSERT_FALSE(test::http_get(port_, "/index.html", true, &first).empty());
  ASSERT_FALSE(test::http_get(port_, "/index.html", true, &second).empty());

  const auto response = test::http_get(admin_port_, "/stats.json");
  const auto body = response.substr(response.find("\r\n\r\n") + 4);
  for (const auto* client : {&first, &second}) {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ASSERT_EQ(::getsockname(client->fd(), reinterpret_cast<sockaddr*>(&local),
                            &len),
              0);
    const std::string peer =
        "\"peer\":\"127.0.0.1:" + std::to_string(ntohs(local.sin_port)) + "\"";
    EXPECT_NE(body.find(peer), std::string::npos) << peer << " in " << body;
  }
}

TEST_F(AdminFixture, LoadgenScrapeMatchesObservedResponses) {
  start_server(admin_options());
  loadgen::ClientConfig config;
  auto addr = net::InetAddress::parse("127.0.0.1", port_);
  ASSERT_TRUE(addr.is_ok());
  config.server = addr.value();
  config.num_clients = 4;
  config.duration = std::chrono::milliseconds(300);
  config.think_time = std::chrono::milliseconds(1);
  config.path_for = [](size_t, std::mt19937&) {
    return std::string("/index.html");
  };
  config.admin_scrape_port = admin_port_;
  const auto stats = loadgen::run_clients(config);
  ASSERT_GT(stats.total_responses, 0u);
  ASSERT_FALSE(stats.admin_stats_text.empty());
  // Every response the generator observed was a reply the server counted
  // (the server may have sent a final reply the generator didn't read).
  const long replies =
      metric_value(stats.admin_stats_text, "nserver_replies_total");
  EXPECT_GE(replies, static_cast<long>(stats.total_responses));
  EXPECT_GE(metric_value(stats.admin_stats_text, "nserver_requests_total"),
            static_cast<long>(stats.total_responses));
}

TEST_F(AdminFixture, HealthzReturns503WhileDraining) {
  // An in-flight request (slowed by decode_delay) holds the drain open long
  // enough to observe the admin endpoint report it: /healthz must flip to
  // 503 "draining" the moment drain() starts, which is what upstream load
  // balancer health checks key off to stop routing new sessions here.
  auto options = admin_options();
  options.processor_threads = 1;
  HttpServerConfig config;
  config.decode_delay = std::chrono::milliseconds(400);
  start_server(options, std::move(config));

  const auto before = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(before.find("200 OK"), std::string::npos);

  test::BlockingClient slow;
  ASSERT_TRUE(slow.connect("127.0.0.1", port_));
  ASSERT_TRUE(slow.send_all(
      "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread drainer([this] {
    EXPECT_TRUE(server_->server().drain(std::chrono::seconds(5)));
  });
  // The drain flag is visible immediately, while the request is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto during = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(during.find("503"), std::string::npos) << during;
  EXPECT_NE(during.find("draining"), std::string::npos) << during;
  drainer.join();

  // The in-flight request was allowed to finish (graceful, not abrupt) —
  // drain() ends in stop(), so the admin endpoint is gone afterwards, but
  // the slow client's response was written before the connection wound down.
  EXPECT_NE(slow.read_some().find("200 OK"), std::string::npos);
}

TEST_F(AdminFixture, OverloadShedReturns503WithRetryAfter) {
  // O9 shed tier: while the processor queue is saturated the server answers
  // with an explicit 503 + Retry-After instead of only suspending accept,
  // and /healthz reports the overload — both visible, countable signals for
  // an upstream balancer's passive ejection.
  auto options = admin_options();
  options.overload_control = true;
  options.overload_shed = true;
  options.queue_high_watermark = 3;
  options.queue_low_watermark = 1;
  options.housekeeping_interval = std::chrono::milliseconds(10);
  options.processor_threads = 1;
  HttpServerConfig config;
  config.decode_delay = std::chrono::milliseconds(10);
  start_server(options, std::move(config));

  // Flood: 8 connections, each with 6 pipelined requests (the last one
  // Connection: close so readers below terminate on EOF).  48 requests at
  // 10ms decode each keep the single processor saturated for ~500ms.
  const std::string keep =
      "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
  const std::string last =
      "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  std::vector<std::unique_ptr<test::BlockingClient>> flooders;
  for (int i = 0; i < 8; ++i) {
    auto client = std::make_unique<test::BlockingClient>();
    ASSERT_TRUE(client->connect("127.0.0.1", port_));
    std::string burst;
    for (int r = 0; r < 5; ++r) burst += keep;
    burst += last;
    ASSERT_TRUE(client->send_all(burst));
    flooders.push_back(std::move(client));
  }

  // Wait for the overload controller to trip…
  bool suspended = false;
  for (int i = 0; i < 2000 && !suspended; ++i) {
    suspended = !server_->server().accepting();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(suspended);
  // The watermark gate is an OverloadManager configuration, so /stats.json
  // shows it: the stop-accept tier, tripped by the reactive queue's length
  // above the high watermark.
  const auto json = test::http_get(admin_port_, "/stats.json");
  EXPECT_NE(json.find("\"tier_name\":\"stop-accept\""), std::string::npos)
      << json;
  const std::string reactive = "{\"name\":\"reactive\",\"raw\":";
  const size_t at = json.find(reactive);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_GT(std::strtod(json.c_str() + at + reactive.size(), nullptr), 3.0)
      << json;
  // …and the admin health check reports it while the backlog lasts.
  const auto health = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(health.find("503"), std::string::npos) << health;
  EXPECT_NE(health.find("overloaded"), std::string::npos) << health;

  // Some pipelined requests were answered with the shed response.
  bool saw_shed_response = false;
  for (auto& client : flooders) {
    const auto raw = client->read_some(0, 5000);
    if (raw.find("503 Service Unavailable") != std::string::npos &&
        raw.find("Retry-After: 1") != std::string::npos) {
      saw_shed_response = true;
    }
  }
  EXPECT_TRUE(saw_shed_response);
  flooders.clear();

  const auto shed = server_->server().profile().requests_shed;
  EXPECT_GT(shed, 0u);
  // The counter is exported through /stats.
  const auto response = test::http_get(admin_port_, "/stats");
  const auto body = response.substr(response.find("\r\n\r\n") + 4);
  EXPECT_EQ(metric_value(body, "nserver_requests_shed_total"),
            static_cast<long>(shed));
}

TEST_F(AdminFixture, AdminSurvivesManyScrapes) {
  start_server(admin_options());
  for (int i = 0; i < 20; ++i) {
    const auto response = test::http_get(admin_port_, "/stats");
    ASSERT_NE(response.find("200 OK"), std::string::npos) << i;
  }
  // The index page lists the endpoints.
  EXPECT_NE(test::http_get(admin_port_, "/").find("/stats"),
            std::string::npos);
}

// ---- golden rendering ----------------------------------------------------------

// A fully populated snapshot with fixed values: cache on, two shards,
// adaptive overload with two monitors, non-empty stage histograms, and two
// connections, one with a peer string that needs JSON escaping.
nserver::StatsSnapshot golden_snapshot() {
  nserver::StatsSnapshot s;
  auto& c = s.counters;
  c.connections_accepted = 101;
  c.connections_closed = 97;
  c.connections_rejected = 3;
  c.bytes_read = 45678;
  c.bytes_sent = 9876543;
  c.requests_decoded = 420;
  c.replies_sent = 419;
  c.decode_errors = 2;
  c.events_processed = 1700;
  c.idle_shutdowns = 5;
  c.header_timeouts = 1;
  c.overload_suspensions = 4;
  c.requests_shed = 6;
  c.per_ip_rejections = 7;
  c.send_writev_calls = 400;
  c.send_bytes_copied = 3210;
  c.send_sendfile_bytes = 1048576;
  c.pool_hits = 800;
  c.pool_misses = 20;
  c.pool_alloc_bytes = 655360;
  c.pool_live_bytes = 131072;
  c.cache_hit_rate = 0.9;
  const std::vector<std::vector<int64_t>> samples = {
      {3, 40, 40}, {12, 900}, {5000}, {}, {70, 70, 1200000}, {2000, 250000}};
  for (size_t stage = 0; stage < samples.size(); ++stage) {
    for (const int64_t micros : samples[stage]) c.stages[stage].record(micros);
  }
  s.connections_open = 4;
  s.queue_depth = 9;
  s.processor_threads = 2;
  s.file_io_pending = 1;
  s.has_cache = true;
  s.cache_hits = 900;
  s.cache_misses = 100;
  s.cache_evictions = 12;
  s.cache_invalidations = 2;
  s.cache_bytes = 123456;
  s.cache_capacity_bytes = 1048576;
  s.cache_entries = 42;
  s.has_overload = true;
  s.overload.monitors = {{"queue_delay", 0.012, 0.4, 0.35},
                         {"connections", 120.0, 0.6, 0.55}};
  s.overload.pressure = 0.55;
  s.overload.tier = nserver::OverloadTier::kShed;
  s.overload.conserving = true;
  s.overload.low_priority_paused = true;
  s.overload.shedding = true;
  s.overload.accept_stopped = false;
  s.overload.retry_after = std::chrono::seconds(3);
  s.shards = {{.shard = 0, .accepts = 51, .connections_open = 3},
              {.shard = 1, .accepts = 50, .connections_open = 1}};
  s.connections = {{7, "10.0.0.1:40000", 100, 2000, 3},
                   {9, "odd \"peer\"\\\x01", 5, 6, 1}};
  return s;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(COPS_SOURCE_DIR) + "/tests/golden/" + name,
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// /stats and /stats.json of a fixed snapshot, byte for byte.  Regenerate the
// files only for a deliberate format change, and list it in CHANGES.md.
TEST(StatsGolden, PrometheusAndJsonMatchTheCommittedFiles) {
  const auto snapshot = golden_snapshot();
  const auto prometheus = read_golden("admin_stats.prom");
  const auto json = read_golden("admin_stats.json");
  ASSERT_FALSE(prometheus.empty());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(nserver::render_prometheus(snapshot), prometheus);
  // /stats.json is the same walk through a JSON writer.
  nserver::MetricsWriter writer(nserver::MetricsFormat::kJson);
  nserver::write_stats(writer, snapshot);
  EXPECT_EQ(writer.finish(), json);
}

}  // namespace
}  // namespace cops
