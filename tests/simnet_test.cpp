// Tests for the simnet engine itself: the syscall seam, the virtual clock,
// fault injection, and seed-replay determinism — plus the regression tests
// for the EINTR/partial-write bugs the harness surfaced in net/socket.cpp
// (see TESTING.md).
//
// Every fault-injecting test prints the replay seed on failure via
// SCOPED_TRACE, so a red run can be reproduced bit-identically.
#include <any>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_buffer.hpp"
#include "common/clock.hpp"
#include "http/http_server.hpp"
#include "net/acceptor.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "nserver/request_context.hpp"
#include "nserver/server.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops::simnet {
namespace {

std::string seed_note(const SimEngine& engine) {
  return "replay seed=" + std::to_string(engine.seed());
}

// Connects one client to a fresh sim listener and accepts it, returning the
// server-side socket.  Drives the engine directly (no reactor).
net::TcpSocket accept_one(SimEngine& engine, SimClient* client,
                          net::TcpListener& listener, uint16_t port,
                          int max_tries = 1000) {
  client->connect(port);
  engine.pump();
  for (int i = 0; i < max_tries; ++i) {
    auto sock = listener.accept();
    if (sock.is_ok()) return std::move(sock).take();
    EXPECT_EQ(sock.status().code(), StatusCode::kWouldBlock)
        << sock.status().to_string();
  }
  ADD_FAILURE() << "accept never succeeded; " << seed_note(engine);
  return {};
}

// ---- virtual clock ----------------------------------------------------------

TEST(SimClockTest, EngineInstallsVirtualClock) {
  const auto real_before = SteadyClock::now();
  {
    SimEngine engine(1);
    const auto t0 = now();
    engine.advance(std::chrono::hours(24));
    const auto t1 = now();
    EXPECT_EQ(std::chrono::duration_cast<std::chrono::hours>(t1 - t0).count(),
              24);
  }
  // Uninstalled: now() is the real steady clock again (a day cannot have
  // passed in this test's wall time).
  const auto real_after = now();
  EXPECT_LT(real_after - real_before, std::chrono::hours(1));
}

// ---- basic channel plumbing -------------------------------------------------

TEST(SimEngineTest, ListenConnectAcceptEcho) {
  SimEngine engine(2);
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9000));
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto* client = engine.new_client();
  auto sock =
      accept_one(engine, client, listener.value(), 9000);
  ASSERT_TRUE(sock.valid());

  client->send("ping");
  ByteBuffer in;
  auto n = sock.read(in);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(in.take_string(), "ping");

  auto wrote = sock.write(std::string_view("pong"));
  ASSERT_TRUE(wrote.is_ok());
  EXPECT_EQ(wrote.value(), 4u);
  engine.pump();
  EXPECT_EQ(client->received(), "pong");

  // Nothing pending: read would block.
  auto empty = sock.read(in);
  EXPECT_EQ(empty.status().code(), StatusCode::kWouldBlock);

  // Orderly client FIN reads as EOF.
  client->close();
  auto eof = sock.read(in);
  EXPECT_EQ(eof.status().code(), StatusCode::kClosed);
}

TEST(SimEngineTest, AddressesAreDeterministic) {
  SimEngine engine(3);
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9001));
  ASSERT_TRUE(listener.is_ok());
  auto addr = listener.value().local_address();
  ASSERT_TRUE(addr.is_ok());
  EXPECT_EQ(addr.value().port(), 9001);

  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9001);
  ASSERT_TRUE(sock.valid());
  auto peer = sock.peer_address();
  ASSERT_TRUE(peer.is_ok());
  EXPECT_EQ(peer.value().to_string(), "10.0.0.1:40000");
  auto local = sock.local_address();
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local.value().port(), 9001);
}

TEST(SimEngineTest, RstOnReadAndWrite) {
  SimEngine engine(4);
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9002));
  ASSERT_TRUE(listener.is_ok());
  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9002);
  ASSERT_TRUE(sock.valid());

  client->reset();
  ByteBuffer in;
  auto r = sock.read(in);
  EXPECT_EQ(r.status().code(), StatusCode::kClosed) << seed_note(engine);
  auto w = sock.write(std::string_view("data"));
  EXPECT_EQ(w.status().code(), StatusCode::kClosed) << seed_note(engine);
  EXPECT_NE(engine.trace_text().find("client-rst"), std::string::npos);
}

TEST(SimEngineTest, SynDropWhenBacklogFull) {
  SimEngine engine(5);
  auto listener =
      net::TcpListener::listen(net::InetAddress::loopback(9003), /*backlog=*/1);
  ASSERT_TRUE(listener.is_ok());
  auto* c1 = engine.new_client();
  auto* c2 = engine.new_client();
  c1->connect(9003);
  c2->connect(9003);  // accept queue full: dropped like a SYN under overload
  EXPECT_TRUE(c1->connected());
  EXPECT_FALSE(c2->connected());
  EXPECT_NE(engine.trace_text().find("syn-drop"), std::string::npos);
}

// Counts the accept calls made on the engine's listeners, and how many of
// them found the queue empty.
class AcceptCountingEngine : public SimEngine {
 public:
  using SimEngine::SimEngine;
  net::SysResult sim_accept(int listen_fd) override {
    const net::SysResult r = SimEngine::sim_accept(listen_fd);
    ++calls;
    if (r.n < 0 && r.err == EAGAIN) ++empty;
    return r;
  }
  int calls = 0;
  int empty = 0;
};

// One readiness pass accepts the whole burst: one accept, then as many
// more as the queue held, and no accept that comes back EAGAIN.
TEST(SimEngineTest, AcceptorTakesABurstInOnePassWithoutEagain) {
  AcceptCountingEngine engine(12);
  net::Reactor reactor;
  std::vector<net::TcpSocket> accepted;
  net::Acceptor acceptor(reactor, [&](net::TcpSocket socket) {
    accepted.push_back(std::move(socket));
  });
  ASSERT_TRUE(acceptor.open("127.0.0.1", 9005, 16).is_ok());
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) engine.new_client()->connect(9005);
  engine.pump();

  acceptor.handle_event(-1, net::kReadable);
  EXPECT_EQ(accepted.size(), static_cast<size_t>(kBurst));
  EXPECT_EQ(engine.calls, kBurst);
  EXPECT_EQ(engine.empty, 0);

  // A later arrival is the next pass's: the listener stays readable.
  engine.new_client()->connect(9005);
  engine.pump();
  acceptor.handle_event(-1, net::kReadable);
  EXPECT_EQ(accepted.size(), static_cast<size_t>(kBurst + 1));
  EXPECT_EQ(engine.calls, kBurst + 1);
  EXPECT_EQ(engine.empty, 0);
  EXPECT_EQ(acceptor.accepted_count(), static_cast<uint64_t>(kBurst + 1));
}

TEST(SimEngineTest, AcceptBurstDrainsUnderEintr) {
  FaultPlan plan;
  plan.accept_eintr = 0.5;
  SimEngine engine(6, plan);
  SCOPED_TRACE(seed_note(engine));
  auto listener =
      net::TcpListener::listen(net::InetAddress::loopback(9004), /*backlog=*/16);
  ASSERT_TRUE(listener.is_ok());
  for (int i = 0; i < 5; ++i) engine.new_client()->connect(9004);

  // The accept loop sees interleaved EINTR (mapped to kWouldBlock) but must
  // still drain all five pending connections.
  int accepted = 0;
  std::vector<net::TcpSocket> socks;
  for (int tries = 0; tries < 1000 && accepted < 5; ++tries) {
    auto sock = listener.value().accept();
    if (sock.is_ok()) {
      socks.push_back(std::move(sock).take());
      ++accepted;
    } else {
      ASSERT_EQ(sock.status().code(), StatusCode::kWouldBlock);
    }
  }
  EXPECT_EQ(accepted, 5);
  EXPECT_NE(engine.trace_text().find("fault accept-eintr"), std::string::npos);
}

TEST(SimEngineTest, SlowPeerStallBacksUpWrites) {
  FaultPlan plan;
  plan.channel_capacity = 128;
  SimEngine engine(7, plan);
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9005));
  ASSERT_TRUE(listener.is_ok());
  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9005);
  ASSERT_TRUE(sock.valid());

  client->pause_reading(true);
  const std::string payload(1024, 'x');
  ByteBuffer out;
  out.append(payload);
  auto first = sock.write(out);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value(), 128u);  // capacity, then the channel is full
  engine.pump();                   // paused: nothing is delivered
  EXPECT_TRUE(client->received().empty());
  auto stalled = sock.write(out);
  EXPECT_EQ(stalled.status().code(), StatusCode::kWouldBlock);

  // Resuming drains the channel and unblocks the writer.
  client->pause_reading(false);
  size_t guard = 0;
  while (out.readable() > 0 && guard++ < 1000) {
    engine.pump();
    auto n = sock.write(out);
    if (!n.is_ok()) {
      ASSERT_EQ(n.status().code(), StatusCode::kWouldBlock);
    }
  }
  engine.pump();
  EXPECT_EQ(client->received(), payload) << seed_note(engine);
}

// ---- regression tests: bugs found by the harness ---------------------------
//
// Before the fix, TcpSocket::read treated EINTR as a fatal error (the
// connection would be torn down with "read-error"); same for both write
// overloads.  These tests fail on the old code at the first injected EINTR.

TEST(SimEintrRegressionTest, ReadRetriesAfterEintr) {
  FaultPlan plan;
  plan.read_eintr = 0.9;
  plan.short_read = 0.5;
  SimEngine engine(42, plan);
  SCOPED_TRACE(seed_note(engine));
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9010));
  ASSERT_TRUE(listener.is_ok());
  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9010);
  ASSERT_TRUE(sock.valid());

  const std::string payload(4096, 'r');
  client->send(payload);
  ByteBuffer in;
  size_t total = 0;
  for (int tries = 0; tries < 10000 && total < payload.size(); ++tries) {
    auto n = sock.read(in);
    if (!n.is_ok()) {
      // Old code: the first injected EINTR surfaces as an INTERNAL error.
      ASSERT_EQ(n.status().code(), StatusCode::kWouldBlock)
          << n.status().to_string();
      continue;
    }
    total += n.value();
  }
  EXPECT_EQ(total, payload.size());
  EXPECT_EQ(in.take_string(), payload);
  EXPECT_NE(engine.trace_text().find("fault read-eintr"), std::string::npos)
      << "plan injected no EINTR - raise the probability or change the seed";
}

TEST(SimEintrRegressionTest, BufferedWriteRetriesAfterEintr) {
  FaultPlan plan;
  plan.write_eintr = 0.6;
  plan.short_write = 0.5;
  plan.channel_capacity = 257;
  SimEngine engine(43, plan);
  SCOPED_TRACE(seed_note(engine));
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9011));
  ASSERT_TRUE(listener.is_ok());
  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9011);
  ASSERT_TRUE(sock.valid());

  std::string payload;
  for (int i = 0; i < 4096; ++i) payload += static_cast<char>('a' + i % 26);
  ByteBuffer out;
  out.append(payload);
  for (int tries = 0; tries < 10000 && out.readable() > 0; ++tries) {
    auto n = sock.write(out);
    if (!n.is_ok()) {
      ASSERT_EQ(n.status().code(), StatusCode::kWouldBlock)
          << n.status().to_string();
    }
    engine.pump();  // let the (virtual) peer drain the channel
  }
  EXPECT_EQ(out.readable(), 0u);
  engine.pump();
  EXPECT_EQ(client->received(), payload);
  EXPECT_NE(engine.trace_text().find("fault write-eintr"), std::string::npos);
}

TEST(SimEintrRegressionTest, DirectWriteRetriesAfterEintr) {
  FaultPlan plan;
  plan.write_eintr = 0.9;
  SimEngine engine(44, plan);
  SCOPED_TRACE(seed_note(engine));
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9012));
  ASSERT_TRUE(listener.is_ok());
  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9012);
  ASSERT_TRUE(sock.valid());

  auto n = sock.write(std::string_view("unbuffered"));
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(n.value(), 10u);
  engine.pump();
  EXPECT_EQ(client->received(), "unbuffered");
  EXPECT_NE(engine.trace_text().find("fault write-eintr"), std::string::npos);
}

// ---- determinism ------------------------------------------------------------

// One fixed scripted scenario under the chaos plan; returns the trace.
std::vector<std::string> chaos_scenario_trace(uint64_t seed) {
  SimEngine engine(seed, FaultPlan::chaos());
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(9020));
  EXPECT_TRUE(listener.is_ok());
  auto* client = engine.new_client();
  auto sock = accept_one(engine, client, listener.value(), 9020);
  EXPECT_TRUE(sock.valid());

  client->send(std::string(512, 'q'));
  ByteBuffer in;
  size_t total = 0;
  for (int tries = 0; tries < 10000 && total < 512; ++tries) {
    auto n = sock.read(in);
    if (n.is_ok()) total += n.value();
  }
  EXPECT_EQ(total, 512u);
  ByteBuffer out;
  out.append(std::string(512, 'p'));
  for (int tries = 0; tries < 10000 && out.readable() > 0; ++tries) {
    (void)sock.write(out);
    engine.pump();
  }
  engine.pump();
  EXPECT_EQ(client->received().size(), 512u);
  return engine.trace();
}

// An engine.at() action runs on the reactor thread without the engine lock,
// so it may wait for a lock that another thread holds across a post() to
// that reactor (post() reaches sim_notify, which takes the engine lock).
// Run under the engine lock, the two threads would wait on each other; the
// action's bounded wait turns that hang into a failure.
TEST(SimEngineLockTest, ScriptedActionMayWaitForALockHeldAcrossPost) {
  SimEngine engine(7);
  net::Reactor reactor;
  net::Acceptor acceptor(reactor, [](net::TcpSocket) {});
  ASSERT_TRUE(acceptor.open("127.0.0.1", 9010, 16).is_ok());
  std::mutex held;
  std::atomic<bool> entered{false};
  std::atomic<bool> got_lock{false};
  engine.at(std::chrono::milliseconds(10), [&] {
    entered = true;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!got_lock && std::chrono::steady_clock::now() < give_up) {
      if (held.try_lock()) {
        got_lock = true;
        held.unlock();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  reactor.start_thread("sim-reactor");
  std::thread poster([&] {
    std::lock_guard guard(held);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!entered && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Let the action reach its wait on `held`.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reactor.post([] {});
  });
  EXPECT_TRUE(engine.run(std::chrono::seconds(1))) << engine.trace_text();
  poster.join();
  EXPECT_TRUE(entered);
  EXPECT_TRUE(got_lock) << "the action waited on `held` under the engine lock";
  reactor.stop();
  reactor.join();
}

TEST(SimDeterminismTest, SameSeedSameTrace) {
  const auto first = chaos_scenario_trace(1234);
  const auto second = chaos_scenario_trace(1234);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(SimDeterminismTest, DifferentSeedDifferentFaults) {
  const auto first = chaos_scenario_trace(1234);
  const auto second = chaos_scenario_trace(5678);
  EXPECT_NE(first, second);
}

// ---- full stack under simulation -------------------------------------------

TEST(SimServerTest, HttpRequestOverSimulatedStack) {
  SimEngine engine(100);
  test::TempDir dir;
  dir.write_file("index.html", "<html>hello simnet</html>");

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8080;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  ASSERT_TRUE(started.is_ok()) << started.to_string();
  EXPECT_EQ(server.port(), 8080);

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(1), [client] {
    client->connect(8080);
    client->send(
        "GET /index.html HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n");
  });
  EXPECT_TRUE(engine.run(std::chrono::seconds(10)))
      << seed_note(engine) << "\n" << engine.trace_text();
  server.stop();

  EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos)
      << client->received();
  EXPECT_NE(client->received().find("<html>hello simnet</html>"),
            std::string::npos);
  EXPECT_TRUE(client->peer_closed());  // Connection: close honoured
  EXPECT_TRUE(engine.failures().empty());
}

TEST(SimServerTest, IdleConnectionReapedOnVirtualClock) {
  // O7 shutdown-long-idle with a 60-second timeout: under the virtual clock
  // this finishes in milliseconds of wall time and needs no real sleeps.
  SimEngine engine(101);
  test::TempDir dir;
  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8081;
  options.shutdown_long_idle = true;
  options.idle_timeout = std::chrono::milliseconds(60'000);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  ASSERT_TRUE(started.is_ok()) << started.to_string();

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(1), [client] {
    client->connect(8081);  // connect, then go silent
  });
  const auto t0 = now();
  ASSERT_TRUE(engine.run(std::chrono::minutes(5)))
      << seed_note(engine) << "\n" << engine.trace_text();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now() - t0);
  server.stop();

  EXPECT_TRUE(client->peer_closed());
  // Reaped at the idle timeout (housekeeping granularity), not at the
  // 5-minute deadline.
  EXPECT_GE(elapsed.count(), 60'000);
  EXPECT_LT(elapsed.count(), 70'000);
}

TEST(SimServerTest, ClientResetMidSessionCleansUpConnection) {
  // A client that RSTs after sending half a request: the server must tear
  // the connection down (no fd/connection leak) without crashing the
  // pipeline.  The trailing no-op script event keeps the engine running
  // long enough for the server to observe the reset.
  SimEngine engine(102);
  test::TempDir dir;
  dir.write_file("index.html", "<html>reset test</html>");
  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8082;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  ASSERT_TRUE(started.is_ok()) << started.to_string();

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(1), [client] {
    client->connect(8082);
    client->send("GET /index.html HTTP/1.1\r\nHost: s");  // mid-headers
  });
  engine.at(std::chrono::milliseconds(5), [client] { client->reset(); });
  engine.at(std::chrono::milliseconds(50), [] { /* let cleanup settle */ });
  ASSERT_TRUE(engine.run(std::chrono::seconds(10)))
      << seed_note(engine) << "\n" << engine.trace_text();

  EXPECT_EQ(server.server().connection_count(), 0u)
      << "connection leaked after client reset; " << seed_note(engine)
      << "\n" << engine.trace_text();
  server.stop();
  EXPECT_TRUE(engine.failures().empty());
}

// ---- lazy read disarm -------------------------------------------------------

// Sequential keep-alive requests: each arrives only after the previous reply,
// so read interest never has to change.  Starting a request cycle leaves
// interest armed and a drained reply re-arms for free.
TEST(SimServerTest, SequentialKeepAliveRequestsChangeNoInterest) {
  SimEngine engine(103);
  test::TempDir dir;
  const std::string body = "<html>keep-alive</html>";
  dir.write_file("index.html", body);
  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8083;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  ASSERT_TRUE(started.is_ok()) << started.to_string();

  constexpr int kRequests = 100;
  const std::string request = "GET /index.html HTTP/1.1\r\nHost: sim\r\n\r\n";
  auto* client = engine.new_client();
  int replies = 0;
  size_t scanned = 0;
  client->on_data = [&](std::string_view) {
    const std::string& got = client->received();
    for (size_t at = got.find(body, scanned); at != std::string::npos;
         at = got.find(body, scanned)) {
      scanned = at + body.size();
      if (++replies < kRequests) {
        client->send(request);
      } else {
        client->close();
      }
    }
  };
  engine.at(std::chrono::milliseconds(1), [&] {
    client->connect(8083);
    client->send(request);
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(10)))
      << seed_note(engine) << "\n" << engine.trace_text();
  server.stop();

  EXPECT_EQ(replies, kRequests) << seed_note(engine);
  EXPECT_EQ(engine.poll_modify_count(), 0u) << seed_note(engine);
  EXPECT_TRUE(engine.failures().empty());
}

// Line protocol whose replies the scenario script releases, so a request
// can be held in the processor while the next one arrives.
class HeldReplyHooks : public nserver::AppHooks {
 public:
  nserver::DecodeResult decode(nserver::RequestContext&,
                               ByteBuffer& in) override {
    const size_t eol = in.find("\n");
    if (eol == std::string_view::npos) {
      return nserver::DecodeResult::need_more();
    }
    std::string line(in.view().substr(0, eol));
    in.consume(eol + 1);
    return nserver::DecodeResult::request_ready(std::move(line));
  }
  void handle(nserver::RequestContext& ctx, std::any request) override {
    held_ = ctx.make_handle();
    line_ = std::any_cast<std::string>(std::move(request));
  }
  std::string encode(nserver::RequestContext&, std::any response) override {
    return std::any_cast<std::string>(std::move(response)) + "\n";
  }
  // Replies to the held request; false when none is held.
  bool release() {
    if (!held_) return false;
    std::exchange(held_, nullptr)->reply("ECHO:" + line_);
    return true;
  }

 private:
  std::shared_ptr<nserver::RequestContext> held_;
  std::string line_;
};

// Request 2 arrives while request 1 is in the processor.  The readable event
// drops read interest once (no level-triggered spin while the request is
// held), the drained reply re-arms it once, and request 2 is then read and
// answered in order.
TEST(SimServerTest, EarlyRequestDisarmsOnceAndRearmsOnce) {
  SimEngine engine(104);
  auto hooks = std::make_shared<HeldReplyHooks>();
  auto options = deterministic_options();
  options.listen_port = 8084;
  nserver::Server server(options, hooks);
  auto started = server.start();
  ASSERT_TRUE(started.is_ok()) << started.to_string();

  auto* client = engine.new_client();
  bool released_first = false;
  bool released_second = false;
  engine.at(std::chrono::milliseconds(1), [client] {
    client->connect(8084);
    client->send("one\n");
  });
  engine.at(std::chrono::milliseconds(5), [client] { client->send("two\n"); });
  engine.at(std::chrono::milliseconds(10),
            [&] { released_first = hooks->release(); });
  engine.at(std::chrono::milliseconds(15),
            [&] { released_second = hooks->release(); });
  engine.at(std::chrono::milliseconds(20), [client] { client->close(); });
  ASSERT_TRUE(engine.run(std::chrono::seconds(10)))
      << seed_note(engine) << "\n" << engine.trace_text();
  server.stop();

  EXPECT_TRUE(released_first);
  EXPECT_TRUE(released_second);
  EXPECT_EQ(client->received(), "ECHO:one\nECHO:two\n") << seed_note(engine);
  EXPECT_EQ(engine.poll_modify_count(), 2u) << seed_note(engine);
  EXPECT_LE(engine.poll_wait_count(), 20u) << seed_note(engine);
  EXPECT_TRUE(engine.failures().empty());
}

}  // namespace
}  // namespace cops::simnet
