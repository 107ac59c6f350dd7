// Differential test: COPS-HTTP vs the Apache-style baseline.
//
// Replays identical, seeded request sets through the full COPS-HTTP stack
// and through src/baseline/threaded_server — two independent
// implementations of the same contract (one event-driven over the
// generated N-Server framework, one thread-per-connection) sharing only
// the protocol library — and diffs what the client observes: status
// lines, body bytes, and connection-close behaviour.  Headers such as
// Date are deliberately not compared.
//
// Sessions mix one-request-at-a-time and fully pipelined delivery, both
// of which every HTTP/1.1 server must handle identically.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/threaded_server.hpp"
#include "http/http_server.hpp"
#include "http/response_parser.hpp"
#include "proxy/proxy_server.hpp"
#include "simnet/sim_engine.hpp"
#include "tests/proxy_test_util.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

struct Step {
  std::string request;    // full request text
  bool expect_body;       // false for HEAD responses
};

struct Observed {
  std::vector<std::string> status_lines;
  std::vector<std::string> bodies;
  bool closed = false;  // server closed after the final response
};

// The request vocabulary: every entry must be served identically by both
// implementations (shared protocol library, shared error pages).  COPS-only
// features (If-Modified-Since 304s, auto-index, status endpoint) are
// excluded by construction.
Step make_step(std::mt19937_64& rng, bool last) {
  const std::string tail =
      std::string("Host: diff\r\nConnection: ") +
      (last ? "close" : "keep-alive") + "\r\n\r\n";
  switch (rng() % 9) {
    case 0: return {"GET /a.txt HTTP/1.1\r\n" + tail, true};
    case 1: return {"HEAD /a.txt HTTP/1.1\r\n" + tail, false};
    case 2: return {"GET /missing.txt HTTP/1.1\r\n" + tail, true};
    case 3: return {"GET /empty.txt HTTP/1.1\r\n" + tail, true};
    case 4: return {"GET /big.bin HTTP/1.1\r\n" + tail, true};
    case 5: return {"GET / HTTP/1.1\r\n" + tail, true};          // index file
    case 6: return {"GET /sub/ HTTP/1.1\r\n" + tail, true};     // nested index
    case 7: return {"GET /%61.txt HTTP/1.1\r\n" + tail, true};  // = /a.txt
    default:
      return {"POST /a.txt HTTP/1.1\r\nContent-Length: 3\r\n" + tail + "xyz",
              true};  // 405 from both
  }
}

std::vector<Step> make_session(std::mt19937_64& rng) {
  std::vector<Step> steps;
  const int n = 1 + static_cast<int>(rng() % 6);
  for (int i = 0; i < n; ++i) steps.push_back(make_step(rng, i == n - 1));
  return steps;
}

// Pulls one response off the front of `buffer`, reading more from `client`
// as needed.  Returns false on framing failure (recorded via GTest).
bool read_response(test::BlockingClient& client, std::string& buffer,
                   bool expect_body, std::string& status_line,
                   std::string& body) {
  while (buffer.find("\r\n\r\n") == std::string::npos) {
    const std::string more = client.read_some(1, 3000);
    if (more.empty()) {
      ADD_FAILURE() << "connection ended mid-headers; got: " << buffer;
      return false;
    }
    buffer += more;
  }
  const size_t header_end = buffer.find("\r\n\r\n");
  const std::string head = buffer.substr(0, header_end);
  status_line = head.substr(0, head.find("\r\n"));
  size_t content_length = 0;
  std::string lower;
  for (char c : head) lower += static_cast<char>(::tolower(c));
  if (const size_t cl = lower.find("content-length:");
      cl != std::string::npos) {
    content_length = std::strtoul(lower.c_str() + cl + 15, nullptr, 10);
  }
  buffer.erase(0, header_end + 4);
  if (!expect_body) {
    body.clear();
    return true;
  }
  while (buffer.size() < content_length) {
    const std::string more = client.read_some(1, 3000);
    if (more.empty()) {
      ADD_FAILURE() << "connection ended mid-body ("
                    << buffer.size() << "/" << content_length << " bytes)";
      return false;
    }
    buffer += more;
  }
  body = buffer.substr(0, content_length);
  buffer.erase(0, content_length);
  return true;
}

// Plays a session against `port`.  `pipelined` sends every request up
// front; otherwise requests go one at a time after each response.
Observed play_session(uint16_t port, const std::vector<Step>& steps,
                      bool pipelined) {
  Observed observed;
  test::BlockingClient client;
  if (!client.connect("127.0.0.1", port)) {
    ADD_FAILURE() << "connect failed to port " << port;
    return observed;
  }
  std::string buffer;
  if (pipelined) {
    std::string wire;
    for (const auto& step : steps) wire += step.request;
    if (!client.send_all(wire)) {
      ADD_FAILURE() << "pipelined send failed";
      return observed;
    }
  }
  for (const auto& step : steps) {
    if (!pipelined && !client.send_all(step.request)) {
      ADD_FAILURE() << "send failed";
      return observed;
    }
    std::string status_line;
    std::string body;
    if (!read_response(client, buffer, step.expect_body, status_line, body)) {
      return observed;
    }
    observed.status_lines.push_back(std::move(status_line));
    observed.bodies.push_back(std::move(body));
  }
  // Final request carried Connection: close — probe for EOF.
  observed.closed = buffer.empty() && client.read_some(1, 1500).empty();
  return observed;
}

class DifferentialFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_.write_file("a.txt", "differential alpha\n");
    dir_.write_file("empty.txt", "");
    std::string big;
    for (int i = 0; i < 8000; ++i) big += static_cast<char>('a' + i % 23);
    dir_.write_file("big.bin", big);
    dir_.write_file("index.html", "<html>root index</html>\n");
    dir_.write_file("sub/index.html", "<html>sub index</html>\n");

    http::HttpServerConfig cops_config;
    cops_config.doc_root = dir_.str();
    cops_ = std::make_unique<http::CopsHttpServer>(
        http::CopsHttpServer::default_options(), cops_config);
    auto cops_started = cops_->start();
    ASSERT_TRUE(cops_started.is_ok()) << cops_started.to_string();

    baseline::ThreadedServerConfig base_config;
    base_config.doc_root = dir_.str();
    base_config.worker_pool = 4;
    baseline_ =
        std::make_unique<baseline::ThreadedHttpServer>(base_config);
    auto base_started = baseline_->start();
    ASSERT_TRUE(base_started.is_ok()) << base_started.to_string();
  }

  void TearDown() override {
    if (cops_) cops_->stop();
    if (baseline_) baseline_->stop();
  }

  void diff_session(uint64_t seed, bool pipelined) {
    SCOPED_TRACE("replay seed=" + std::to_string(seed) +
                 (pipelined ? " pipelined" : " sequential"));
    std::mt19937_64 rng(seed);
    const auto steps = make_session(rng);
    const Observed cops = play_session(cops_->port(), steps, pipelined);
    const Observed base = play_session(baseline_->port(), steps, pipelined);
    ASSERT_EQ(cops.status_lines.size(), steps.size());
    ASSERT_EQ(base.status_lines.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(cops.status_lines[i], base.status_lines[i])
          << "request " << i << ": " << steps[i].request.substr(0, 40);
      EXPECT_EQ(cops.bodies[i], base.bodies[i])
          << "request " << i << ": " << steps[i].request.substr(0, 40);
    }
    EXPECT_EQ(cops.closed, base.closed) << "close behaviour diverged";
    EXPECT_TRUE(cops.closed) << "Connection: close not honoured";
  }

  test::TempDir dir_;
  std::unique_ptr<http::CopsHttpServer> cops_;
  std::unique_ptr<baseline::ThreadedHttpServer> baseline_;
};

class DifferentialTest : public DifferentialFixture,
                         public ::testing::WithParamInterface<int> {
 protected:
  // WithParamInterface needs the fixture split so gtest value-parameterises
  // the seed while reusing one SetUp shape.
};

TEST_P(DifferentialTest, SequentialSessionsMatch) {
  diff_session(static_cast<uint64_t>(GetParam()), /*pipelined=*/false);
}

TEST_P(DifferentialTest, PipelinedSessionsMatch) {
  diff_session(static_cast<uint64_t>(GetParam()) + 100, /*pipelined=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(1, 7),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Both implementations must reject a malformed request by closing the
// connection without sending any response bytes.
TEST_F(DifferentialFixture, MalformedRequestClosesWithoutReply) {
  for (const uint16_t port : {cops_->port(), baseline_->port()}) {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    ASSERT_TRUE(client.send_all("GARBAGE \x01\x02 HTTP/9.9\r\n\r\n"));
    EXPECT_EQ(client.read_some(0, 2000), "") << "port " << port;
  }
}

// An oversized header block must be rejected by both (limit: 16 KiB).
TEST_F(DifferentialFixture, OversizedHeadersRejectedByBoth) {
  std::string huge = "GET /a.txt HTTP/1.1\r\nHost: diff\r\n";
  for (int i = 0; i < 800; ++i) {
    huge += "X-Pad-" + std::to_string(i) + ": aaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  huge += "\r\n";
  for (const uint16_t port : {cops_->port(), baseline_->port()}) {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    ASSERT_TRUE(client.send_all(huge));
    // Either zero bytes or an error response is acceptable per
    // implementation — but both must close, and neither may serve the file.
    const std::string reply = client.read_some(0, 2000);
    EXPECT_EQ(reply.find("differential alpha"), std::string::npos)
        << "port " << port;
  }
}

// ---- proxy differential gate ------------------------------------------------
//
// A reverse proxy must be a transparent pipe: the byte stream a client
// observes through the proxy must match what it would observe talking to
// the backend directly, for every session the differential vocabulary can
// produce — modulo the headers a conforming intermediary owns (Via,
// Connection).  play_session() compares exactly the transparent parts
// (status lines, body bytes, close behaviour), so the existing replay
// machinery doubles as the proxy gate unchanged.

class ProxyDifferentialFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_.write_file("a.txt", "differential alpha\n");
    dir_.write_file("empty.txt", "");
    std::string big;
    for (int i = 0; i < 8000; ++i) big += static_cast<char>('a' + i % 23);
    big_ = big;
    dir_.write_file("big.bin", big);
    dir_.write_file("index.html", "<html>root index</html>\n");
    dir_.write_file("sub/index.html", "<html>sub index</html>\n");

    http::HttpServerConfig backend_config;
    backend_config.doc_root = dir_.str();
    backend_ = std::make_unique<http::CopsHttpServer>(
        http::CopsHttpServer::default_options(), backend_config);
    auto backend_started = backend_->start();
    ASSERT_TRUE(backend_started.is_ok()) << backend_started.to_string();

    proxy::ProxyConfig config;  // listen_port 0 = kernel-assigned; pooled
    proxy_ = std::make_unique<proxy::ProxyServer>(config);
    proxy_->add_backend(net::InetAddress::loopback(backend_->port()));
    auto proxy_started = proxy_->start();
    ASSERT_TRUE(proxy_started.is_ok()) << proxy_started.to_string();
  }

  void TearDown() override {
    if (proxy_) proxy_->stop();
    if (backend_) backend_->stop();
  }

  test::TempDir dir_;
  std::string big_;
  std::unique_ptr<http::CopsHttpServer> backend_;
  std::unique_ptr<proxy::ProxyServer> proxy_;
};

TEST_F(ProxyDifferentialFixture, ProxiedSessionsMatchDirectPerSeed) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool pipelined : {false, true}) {
      SCOPED_TRACE("proxy replay seed=" + std::to_string(seed) +
                   (pipelined ? " pipelined" : " sequential"));
      std::mt19937_64 rng(seed * 7919);
      const auto steps = make_session(rng);
      const Observed direct = play_session(backend_->port(), steps, pipelined);
      const Observed proxied = play_session(proxy_->port(), steps, pipelined);
      ASSERT_EQ(direct.status_lines.size(), steps.size());
      ASSERT_EQ(proxied.status_lines.size(), steps.size());
      for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(proxied.status_lines[i], direct.status_lines[i])
            << "request " << i << ": " << steps[i].request.substr(0, 40);
        EXPECT_EQ(proxied.bodies[i], direct.bodies[i])
            << "request " << i << ": " << steps[i].request.substr(0, 40);
      }
      EXPECT_EQ(proxied.closed, direct.closed) << "close behaviour diverged";
      EXPECT_TRUE(proxied.closed) << "Connection: close not honoured";
    }
  }
}

// Reads one chunked response off `client` and de-frames it with the shared
// decoder.  The proxy passes chunked framing through verbatim, so decode
// success here also certifies the relayed framing.
bool read_chunked_response(test::BlockingClient& client,
                           std::string& status_line, std::string& body) {
  std::string buffer;
  while (buffer.find("\r\n\r\n") == std::string::npos) {
    const std::string more = client.read_some(1, 3000);
    if (more.empty()) {
      ADD_FAILURE() << "connection ended mid-headers; got: " << buffer;
      return false;
    }
    buffer += more;
  }
  const size_t head_end = buffer.find("\r\n\r\n");
  const std::string head = buffer.substr(0, head_end);
  status_line = head.substr(0, head.find("\r\n"));
  std::string lower;
  for (char c : head) lower += static_cast<char>(::tolower(c));
  if (lower.find("transfer-encoding: chunked") == std::string::npos) {
    ADD_FAILURE() << "expected chunked framing; head: " << head;
    return false;
  }
  buffer.erase(0, head_end + 4);
  http::ChunkedDecoder decoder;
  http::ParseLimits limits;
  while (true) {
    size_t consumed = 0;
    const auto status = decoder.feed(buffer, &consumed, body, limits);
    buffer.erase(0, consumed);
    if (status == http::ChunkedDecoder::Status::kDone) return true;
    if (status != http::ChunkedDecoder::Status::kNeedMore) {
      ADD_FAILURE() << "bad chunked framing from proxy";
      return false;
    }
    const std::string more = client.read_some(1, 3000);
    if (more.empty()) {
      ADD_FAILURE() << "connection ended mid-chunked-body";
      return false;
    }
    buffer += more;
  }
}

// A chunk-framing origin relayed through the proxy must deliver the same
// de-framed body as a direct fetch from that origin.
TEST_F(ProxyDifferentialFixture, ChunkedDownloadMatchesDirect) {
  test::ScriptedBackend origin(
      0, [this](const test::ScriptedBackend::Request&) {
        return test::chunked_response(big_, 1024);
      });
  ASSERT_TRUE(origin.ok());

  proxy::ProxyConfig config;
  proxy::ProxyServer chunked_proxy(config);
  chunked_proxy.add_backend(net::InetAddress::loopback(origin.port()));
  ASSERT_TRUE(chunked_proxy.start().is_ok());

  const std::string request =
      "GET /big.bin HTTP/1.1\r\nHost: diff\r\nConnection: close\r\n\r\n";
  std::string direct_status, direct_body;
  {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", origin.port()));
    ASSERT_TRUE(client.send_all(request));
    ASSERT_TRUE(read_chunked_response(client, direct_status, direct_body));
  }
  std::string proxied_status, proxied_body;
  {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", chunked_proxy.port()));
    ASSERT_TRUE(client.send_all(request));
    ASSERT_TRUE(read_chunked_response(client, proxied_status, proxied_body));
  }
  EXPECT_EQ(proxied_status, direct_status);
  EXPECT_EQ(proxied_body, direct_body);
  EXPECT_EQ(proxied_body, big_);

  chunked_proxy.stop();
  origin.stop();
}

// 100 keep-alive requests on one downstream connection must be served off
// one pooled upstream connection: at most the first is a pool miss.
TEST_F(ProxyDifferentialFixture, KeepAliveRunReusesPooledUpstream) {
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy_->port()));
  std::string buffer;
  for (int i = 0; i < 100; ++i) {
    const bool last = i == 99;
    const std::string request =
        std::string("GET /a.txt HTTP/1.1\r\nHost: diff\r\nConnection: ") +
        (last ? "close" : "keep-alive") + "\r\n\r\n";
    ASSERT_TRUE(client.send_all(request)) << "request " << i;
    std::string status_line;
    std::string body;
    ASSERT_TRUE(read_response(client, buffer, true, status_line, body))
        << "request " << i;
    EXPECT_EQ(status_line, "HTTP/1.1 200 OK") << "request " << i;
    EXPECT_EQ(body, "differential alpha\n") << "request " << i;
  }
  EXPECT_GE(proxy_->pool_reuse_total(), 80u);
  EXPECT_LE(proxy_->pool_miss_total(), 20u);
}

// ---- mid-body upstream death (deterministic, simnet) ------------------------
//
// When the backend dies partway through a response the proxy may fail the
// exchange, but it must never dress a truncated body up as a complete one:
// a Content-Length reply either carries every promised byte or the client
// observes close-before-length; a chunked reply either decodes to the full
// body or ends mid-frame (no forged terminal chunk).  The byte-counted
// kill lands at a different point per threshold, sweeping head/early/late
// truncation.

constexpr uint16_t kKillProxyPort = 8600;
constexpr uint16_t kKillBackendPort = 8601;

TEST(ProxyKillDifferentialTest, MidBodyKillNeverForgesCompleteCLResponse) {
  const std::string body(8000, 'k');
  for (const uint64_t kill_bytes : {200ull, 2000ull, 6000ull}) {
    SCOPED_TRACE("kill_bytes=" + std::to_string(kill_bytes));
    simnet::SimEngine engine(0x6b17ull ^ kill_bytes);
    test::ScriptedBackend origin(
        kKillBackendPort, [&](const test::ScriptedBackend::Request&) {
          return test::simple_response(body);
        });
    ASSERT_TRUE(origin.ok());

    proxy::ProxyConfig config;
    config.listen_port = kKillProxyPort;
    proxy::ProxyServer proxy(config);
    proxy.add_backend(net::InetAddress::loopback(kKillBackendPort));
    ASSERT_TRUE(proxy.start().is_ok());
    engine.kill_port_after_bytes(kKillBackendPort, kill_bytes);

    auto* client = engine.new_client();
    engine.at(std::chrono::milliseconds(5), [client] {
      client->connect(kKillProxyPort);
      client->send(
          "GET /doomed HTTP/1.1\r\nHost: kill\r\nConnection: close\r\n\r\n");
    });
    ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

    const std::string& got = client->received();
    const size_t head_end = got.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      // Died before a relayable head: nothing but a clean close is fine.
      EXPECT_TRUE(client->peer_closed());
    } else if (got.compare(0, 15, "HTTP/1.1 200 OK") == 0) {
      const std::string delivered = got.substr(head_end + 4);
      // Prefix of the true body, and complete only if every byte arrived.
      ASSERT_LE(delivered.size(), body.size());
      EXPECT_EQ(delivered, body.substr(0, delivered.size()));
      if (delivered.size() < body.size()) {
        EXPECT_TRUE(client->peer_closed())
            << "truncated 200 left open — looks complete to the client";
      }
    } else {
      // The failure surfaced before any body byte: a 502 is the contract.
      EXPECT_EQ(got.compare(0, 12, "HTTP/1.1 502"), 0) << got.substr(0, 64);
      EXPECT_TRUE(client->peer_closed());
    }
    proxy.stop();
    origin.stop();
  }
}

TEST(ProxyKillDifferentialTest, MidBodyKillNeverForgesTerminalChunk) {
  const std::string body(8000, 'c');
  for (const uint64_t kill_bytes : {300ull, 4000ull}) {
    SCOPED_TRACE("kill_bytes=" + std::to_string(kill_bytes));
    simnet::SimEngine engine(0xc4u ^ kill_bytes);
    test::ScriptedBackend origin(
        kKillBackendPort, [&](const test::ScriptedBackend::Request&) {
          return test::chunked_response(body, 512);
        });
    ASSERT_TRUE(origin.ok());

    proxy::ProxyConfig config;
    config.listen_port = kKillProxyPort;
    proxy::ProxyServer proxy(config);
    proxy.add_backend(net::InetAddress::loopback(kKillBackendPort));
    ASSERT_TRUE(proxy.start().is_ok());
    engine.kill_port_after_bytes(kKillBackendPort, kill_bytes);

    auto* client = engine.new_client();
    engine.at(std::chrono::milliseconds(5), [client] {
      client->connect(kKillProxyPort);
      client->send(
          "GET /doomed HTTP/1.1\r\nHost: kill\r\nConnection: close\r\n\r\n");
    });
    ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

    const std::string& got = client->received();
    const size_t head_end = got.find("\r\n\r\n");
    if (head_end == std::string::npos ||
        got.compare(0, 15, "HTTP/1.1 200 OK") != 0) {
      EXPECT_TRUE(client->peer_closed());
      continue;
    }
    // Decode whatever framing was relayed: it must either terminate with
    // the full body or be detectably incomplete (kNeedMore + close).
    http::ChunkedDecoder decoder;
    http::ParseLimits limits;
    std::string decoded;
    size_t consumed = 0;
    const auto status = decoder.feed(got.substr(head_end + 4), &consumed,
                                     decoded, limits);
    if (status == http::ChunkedDecoder::Status::kDone) {
      EXPECT_EQ(decoded, body) << "terminal chunk on an incomplete body";
    } else {
      EXPECT_EQ(status, http::ChunkedDecoder::Status::kNeedMore);
      EXPECT_TRUE(client->peer_closed());
      EXPECT_EQ(decoded, body.substr(0, decoded.size()));
    }
    proxy.stop();
    origin.stop();
  }
}

}  // namespace
}  // namespace cops
