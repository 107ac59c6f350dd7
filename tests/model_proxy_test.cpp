// Model-based protocol tests for the streaming L7 proxy (src/proxy) under
// the deterministic network simulator.
//
// The model is the proxy's protocol contract, checked against scripted
// origins that misbehave on purpose (tests/proxy_test_util.hpp):
//
//   * hop-by-hop headers are stripped in BOTH directions and a Via header
//     is added in both directions (observable because the echo origin
//     returns the request head it saw as its response body);
//   * upstream connect failure → 502; an origin that accepts and goes
//     silent → 504 on the upstream header deadline (virtual clock);
//   * a malformed origin response → 502 and the connection is poisoned —
//     never re-parked, never reused;
//   * chunked bodies stream through both directions with the framing
//     forwarded byte-identically;
//   * a reused pooled connection reset between requests is retried exactly
//     once on a fresh connection, invisibly to the client;
//   * watermark backpressure pauses reads instead of buffering the body;
//
// and every scenario replays bit-identically per seed: the proxy's event
// stream is folded into the engine trace and two same-seed runs compare
// equal (the TESTING.md model-based-testing discipline applied to the
// proxy data plane).
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proxy/proxy_server.hpp"
#include "simnet/sim_engine.hpp"
#include "tests/proxy_test_util.hpp"

namespace cops::proxy {
namespace {

using simnet::SimClient;
using simnet::SimEngine;
using test::ScriptedBackend;

constexpr uint16_t kProxyPort = 8400;
constexpr uint16_t kBackendPortBase = 8401;

ProxyConfig sim_config(SimEngine& engine) {
  ProxyConfig config;
  config.listen_port = kProxyPort;
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  return config;
}

size_t count_in(const std::vector<std::string>& trace,
                const std::string& needle) {
  size_t hits = 0;
  for (const auto& line : trace) {
    if (line.find(needle) != std::string::npos) ++hits;
  }
  return hits;
}

std::string get_close(const std::string& path,
                      const std::string& extra_headers = "") {
  return "GET " + path + " HTTP/1.1\r\nHost: origin\r\n" + extra_headers +
         "Connection: close\r\n\r\n";
}

// ---- hop-by-hop stripping + Via, both directions ----------------------------

TEST(ModelProxyTest, HopByHopStrippedAndViaAddedBothDirections) {
  SimEngine engine(0x9a1);
  // The origin echoes the request head it received as its body, wrapped in
  // a response that carries its own hop-by-hop junk (including a header
  // *named* by Connection, which makes it hop-by-hop too).
  ScriptedBackend origin(kBackendPortBase, [](const ScriptedBackend::Request&
                                                  request) {
    const std::string& body = request.raw_head;
    return "HTTP/1.1 200 OK\r\nContent-Length: " +
           std::to_string(body.size()) +
           "\r\nConnection: keep-alive, X-Origin-Hop\r\n"
           "Keep-Alive: timeout=5\r\nX-Origin-Hop: secret\r\n"
           "X-Origin: ok\r\n\r\n" +
           body;
  });
  ASSERT_TRUE(origin.ok());

  ProxyServer proxy(sim_config(engine));
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [client] {
    client->connect(kProxyPort);
    client->send(get_close(
        "/echo", "X-Client: yes\r\nProxy-Connection: keep-alive\r\nTE: "
                 "trailers\r\n"));
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  const std::string& reply = client->received();
  const size_t split = reply.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos) << reply;
  const std::string head = reply.substr(0, split + 4);
  const std::string body = reply.substr(split + 4);

  // Clientward head: end-to-end headers survive, hop-by-hop is gone, the
  // proxy speaks for the connection itself.
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos) << head;
  EXPECT_NE(head.find("X-Origin: ok"), std::string::npos) << head;
  EXPECT_NE(head.find("Via: 1.1 cops-proxy"), std::string::npos) << head;
  EXPECT_NE(head.find("Connection: close"), std::string::npos) << head;
  EXPECT_EQ(head.find("X-Origin-Hop"), std::string::npos) << head;
  EXPECT_EQ(head.find("Keep-Alive:"), std::string::npos) << head;

  // Upstream head (echoed back as the body): the client's end-to-end
  // headers arrived, its hop-by-hop ones did not, and Via marks the hop.
  EXPECT_NE(body.find("GET /echo HTTP/1.1"), std::string::npos) << body;
  EXPECT_NE(body.find("Host: origin"), std::string::npos) << body;
  EXPECT_NE(body.find("X-Client: yes"), std::string::npos) << body;
  EXPECT_NE(body.find("Via: 1.1 cops-proxy"), std::string::npos) << body;
  EXPECT_EQ(body.find("Proxy-Connection"), std::string::npos) << body;
  EXPECT_EQ(body.find("TE:"), std::string::npos) << body;
  EXPECT_EQ(body.find("Connection:"), std::string::npos) << body;

  EXPECT_EQ(proxy.counters().responses.load(), 1u);
  proxy.stop();
  origin.stop();
}

// ---- failure mapping: 502 on connect failure, 504 on silence ----------------

TEST(ModelProxyTest, ConnectFailureYields502) {
  SimEngine engine(0x502);
  ScriptedBackend origin(kBackendPortBase,
                         [](const ScriptedBackend::Request&) {
                           return test::simple_response("never reached");
                         });
  ASSERT_TRUE(origin.ok());
  engine.kill_port(kBackendPortBase);  // connects now refused

  ProxyServer proxy(sim_config(engine));
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [client] {
    client->connect(kProxyPort);
    client->send(get_close("/x"));
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  EXPECT_NE(client->received().find("HTTP/1.1 502 Bad Gateway"),
            std::string::npos)
      << client->received();
  EXPECT_TRUE(client->peer_closed());
  EXPECT_EQ(proxy.counters().bad_gateway.load(), 1u);
  EXPECT_EQ(count_in(engine.trace(), "proxy-connect-fail backend=0"), 1u);
  EXPECT_EQ(count_in(engine.trace(), "proxy-502"), 1u);
  proxy.stop();
  origin.stop();
}

TEST(ModelProxyTest, SilentUpstreamYields504OnHeaderDeadline) {
  SimEngine engine(0x504);
  // Black hole: accepts, reads the request, never answers.
  ScriptedBackend origin(kBackendPortBase,
                         [](const ScriptedBackend::Request&) {
                           return std::string();
                         });
  ASSERT_TRUE(origin.ok());

  auto config = sim_config(engine);
  config.upstream_header_timeout = std::chrono::milliseconds(300);
  ProxyServer proxy(config);
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* client = engine.new_client();
  const auto t0 = now();
  engine.at(std::chrono::milliseconds(5), [client] {
    client->connect(kProxyPort);
    client->send(get_close("/slow"));
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now() - t0);

  EXPECT_NE(client->received().find("HTTP/1.1 504 Gateway Timeout"),
            std::string::npos)
      << client->received();
  // The deadline fired on the virtual clock: after 300ms, well before the
  // engine's 5s cutoff.
  EXPECT_GE(elapsed.count(), 300);
  EXPECT_LT(elapsed.count(), 2000);
  EXPECT_EQ(proxy.counters().gateway_timeout.load(), 1u);
  EXPECT_EQ(count_in(engine.trace(), "proxy-504"), 1u);
  EXPECT_EQ(origin.requests_seen(), 1u) << "request never reached origin";
  proxy.stop();
  origin.stop();
}

// ---- malformed origin response: 502 + the connection is poisoned ------------

TEST(ModelProxyTest, MalformedUpstreamYields502AndPoisonsConnection) {
  SimEngine engine(0xbad);
  // First exchange returns unparseable garbage; later exchanges are clean.
  auto hits = std::make_shared<int>(0);
  ScriptedBackend origin(
      kBackendPortBase, [hits](const ScriptedBackend::Request&) {
        return ++*hits == 1 ? "BANANA/9.9 tasty\r\nnot: a response\r\n\r\n"
                            : test::simple_response("clean");
      });
  ASSERT_TRUE(origin.ok());

  ProxyServer proxy(sim_config(engine));
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* first = engine.new_client();
  auto* second = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [first] {
    first->connect(kProxyPort);
    first->send(get_close("/poison"));
  });
  engine.at(std::chrono::milliseconds(100), [second] {
    second->connect(kProxyPort);
    second->send(get_close("/after"));
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  EXPECT_NE(first->received().find("HTTP/1.1 502 Bad Gateway"),
            std::string::npos)
      << first->received();
  EXPECT_NE(second->received().find("HTTP/1.1 200 OK"), std::string::npos)
      << second->received();
  EXPECT_NE(second->received().find("clean"), std::string::npos);

  // The poisoned connection was closed, never parked: the second request
  // had to open a fresh origin connection.
  EXPECT_EQ(proxy.counters().poisoned.load(), 1u);
  EXPECT_EQ(proxy.pool_reuse_total(), 0u);
  EXPECT_EQ(origin.accepted(), 2u);
  EXPECT_EQ(count_in(engine.trace(), "proxy-upstream-poisoned"), 1u);
  proxy.stop();
  origin.stop();
}

// ---- chunked bodies stream through both directions --------------------------

TEST(ModelProxyTest, ChunkedUploadAndDownloadRelayedVerbatim) {
  SimEngine engine(0xc4c);
  const std::string upload_body = "streaming request body via the proxy";
  const std::string download_body =
      "chunk framing must cross the relay byte-identically";
  // POST /up: echo the decoded upload back with Content-Length;
  // GET /down: reply chunked.
  ScriptedBackend origin(
      kBackendPortBase, [&](const ScriptedBackend::Request& request) {
        if (request.head.method == "POST") {
          return test::simple_response(request.body);
        }
        return test::chunked_response(download_body, 9);
      });
  ASSERT_TRUE(origin.ok());

  ProxyServer proxy(sim_config(engine));
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* uploader = engine.new_client();
  auto* downloader = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [&] {
    uploader->connect(kProxyPort);
    uploader->send(
        "POST /up HTTP/1.1\r\nHost: origin\r\nTransfer-Encoding: chunked\r\n"
        "Connection: close\r\n\r\n");
    // The body follows in separate deliveries: the relay must stream it.
    const std::string first_chunk = upload_body.substr(0, 10);
    const std::string second_chunk = upload_body.substr(10);
    char size_line[16];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", first_chunk.size());
    uploader->send(size_line + first_chunk + "\r\n");
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                  second_chunk.size());
    uploader->send(std::string(size_line) + second_chunk + "\r\n0\r\n\r\n");
  });
  engine.at(std::chrono::milliseconds(50), [&] {
    downloader->connect(kProxyPort);
    downloader->send(get_close("/down"));
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  // Upload: the origin decoded exactly the bytes the client chunked.
  EXPECT_NE(uploader->received().find("HTTP/1.1 200 OK"), std::string::npos)
      << uploader->received();
  EXPECT_NE(uploader->received().find(upload_body), std::string::npos);

  // Download: chunk framing crossed the relay verbatim.
  const std::string& down = downloader->received();
  const size_t split = down.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos) << down;
  const std::string head = down.substr(0, split + 4);
  const std::string framed = down.substr(split + 4);
  EXPECT_NE(head.find("Transfer-Encoding: chunked"), std::string::npos)
      << head;
  const std::string origin_reply = test::chunked_response(download_body, 9);
  EXPECT_EQ(framed, origin_reply.substr(origin_reply.find("\r\n\r\n") + 4));
  proxy.stop();
  origin.stop();
}

// ---- stale pooled connection: retried exactly once, invisibly ---------------

TEST(ModelProxyTest, StaleReusedConnectionRetriedExactlyOnce) {
  SimEngine engine(0x57a7e);
  ScriptedBackend origin(kBackendPortBase,
                         [](const ScriptedBackend::Request& request) {
                           return test::simple_response(
                               "served " + request.head.target);
                         });
  ASSERT_TRUE(origin.ok());

  ProxyServer proxy(sim_config(engine));
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* first = engine.new_client();
  auto* second = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [first] {
    first->connect(kProxyPort);
    first->send(get_close("/one"));  // completes; origin connection parks
  });
  // Between requests, the origin machine resets every connection — the
  // parked keep-alive socket is now stale, and nothing tells the pool.
  engine.at(std::chrono::milliseconds(50),
            [&engine] { engine.kill_port(kBackendPortBase); });
  engine.at(std::chrono::milliseconds(60),
            [&engine] { engine.revive_port(kBackendPortBase); });
  engine.at(std::chrono::milliseconds(100), [second] {
    second->connect(kProxyPort);
    second->send(get_close("/two"));  // lands on the stale socket
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  EXPECT_NE(first->received().find("served /one"), std::string::npos);
  // The client never sees the stale socket: one silent retry, then 200.
  EXPECT_NE(second->received().find("HTTP/1.1 200 OK"), std::string::npos)
      << second->received() << "\n" << engine.trace_text();
  EXPECT_NE(second->received().find("served /two"), std::string::npos);
  EXPECT_EQ(proxy.counters().bad_gateway.load(), 0u);
  EXPECT_EQ(proxy.pool_stale_retry_total(), 1u);
  EXPECT_EQ(count_in(engine.trace(), "proxy-stale-retry"), 1u);
  EXPECT_EQ(count_in(engine.trace(), "proxy-pool-reuse backend=0"), 1u);
  proxy.stop();
  origin.stop();
}

// ---- backpressure: a slow client pauses upstream reads ----------------------

TEST(ModelProxyTest, SlowClientTripsWatermarkBackpressure) {
  SimEngine engine(0xbac0);
  // Must exceed the sim channel capacity (64 KiB): the paused client's
  // channel absorbs one capacity's worth before proxy writes EAGAIN, and only
  // the overflow accumulates in the proxy's send queue where the watermark
  // gate can see it.
  const std::string big_body(256 * 1024, 'b');
  ScriptedBackend origin(kBackendPortBase,
                         [&](const ScriptedBackend::Request&) {
                           return test::simple_response(big_body);
                         });
  ASSERT_TRUE(origin.ok());

  auto config = sim_config(engine);
  config.high_watermark = 2048;
  config.low_watermark = 512;
  ProxyServer proxy(config);
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [client] {
    client->connect(kProxyPort);
    client->pause_reading(true);  // slow consumer from the first byte
    client->send(get_close("/big"));
  });
  engine.at(std::chrono::milliseconds(400),
            [client] { client->pause_reading(false); });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  // The full body still arrived — backpressure pauses, it never drops.
  EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos);
  const size_t body_at = client->received().find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(client->received().substr(body_at + 4), big_body);
  EXPECT_GT(proxy.counters().backpressure.load(), 0u);
  EXPECT_GE(count_in(engine.trace(), "proxy-backpressure dir=response"), 1u);
  proxy.stop();
  origin.stop();
}

// ---- determinism: the whole scenario replays bit-identically ----------------

struct ChaosRun {
  std::vector<std::string> trace;
  std::vector<std::string> responses;
};

ChaosRun run_mixed_chaos(uint64_t seed) {
  SimEngine engine(seed);
  ScriptedBackend origin_a(kBackendPortBase,
                           [](const ScriptedBackend::Request& request) {
                             return test::simple_response("a:" +
                                                          request.head.target);
                           });
  ScriptedBackend origin_b(kBackendPortBase + 1,
                           [](const ScriptedBackend::Request& request) {
                             return test::chunked_response(
                                 "b:" + request.head.target, 5);
                           });
  EXPECT_TRUE(origin_a.ok());
  EXPECT_TRUE(origin_b.ok());

  ProxyConfig config;
  config.listen_port = kProxyPort;
  config.upstream_header_timeout = std::chrono::milliseconds(400);
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  ProxyServer proxy(config);
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase));
  proxy.add_backend(net::InetAddress::loopback(kBackendPortBase + 1));
  EXPECT_TRUE(proxy.start().is_ok());

  std::vector<SimClient*> clients;
  for (int i = 0; i < 6; ++i) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(std::chrono::milliseconds(10 + 15 * i), [client, i] {
      client->connect(kProxyPort);
      client->send(get_close("/r" + std::to_string(i)));
    });
  }
  // Backend 0 drops off the network mid-run and comes back.
  engine.at(std::chrono::milliseconds(40),
            [&engine] { engine.kill_port(kBackendPortBase); });
  engine.at(std::chrono::milliseconds(70),
            [&engine] { engine.revive_port(kBackendPortBase); });

  EXPECT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  ChaosRun run;
  run.trace = engine.trace();
  for (auto* client : clients) run.responses.push_back(client->received());
  proxy.stop();
  origin_a.stop();
  origin_b.stop();
  return run;
}

TEST(ModelProxyTest, MixedChaosTraceIsBitIdenticalPerSeed) {
  const auto first = run_mixed_chaos(0xf00d);
  const auto second = run_mixed_chaos(0xf00d);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.responses, second.responses);
}

}  // namespace
}  // namespace cops::proxy
