// Behavioural tests of the five-step pipeline, RequestContext resolutions,
// the Client Component (connect_peer), event scheduling end-to-end, and
// overload control end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "http/http_server.hpp"
#include "nserver/request_context.hpp"
#include "nserver/server.hpp"
#include "tests/test_util.hpp"

namespace cops::nserver {
namespace {

// `n` bytes of a pattern that shifts every 4093 bytes, so a misplaced or
// repeated chunk of a bulk send shows.
std::string bulk_payload(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>('a' + (i + i / 4093) % 26);
  }
  return out;
}

// Line-echo hooks with instrumentation knobs.
class ProbeHooks : public AppHooks {
 public:
  std::atomic<int> connects{0};
  std::atomic<int> closes{0};
  std::atomic<int> handled{0};
  std::atomic<int> encoded{0};
  // When set, handle() resolves with finish() instead of replying.
  std::atomic<bool> silent{false};
  // When set, handle() defers its reply through an extra thread hop.
  std::atomic<bool> defer{false};
  // Artificial per-request handle cost.
  std::atomic<int> handle_delay_ms{0};
  // When non-zero, handle() first send()s bulk_payload(bulk_bytes), then
  // replies.
  std::atomic<size_t> bulk_bytes{0};
  std::function<int(const std::string&)> classify;

  void on_connect(RequestContext& ctx) override {
    connects.fetch_add(1);
    ctx.send("HELLO\n");
  }
  void on_close(uint64_t) override { closes.fetch_add(1); }

  DecodeResult decode(RequestContext&, ByteBuffer& in) override {
    const size_t eol = in.find("\n");
    if (eol == std::string_view::npos) return DecodeResult::need_more();
    std::string line(in.view().substr(0, eol));
    in.consume(eol + 1);
    const int priority = classify ? classify(line) : 0;
    return DecodeResult::request_ready(std::move(line), priority);
  }

  void handle(RequestContext& ctx, std::any request) override {
    handled.fetch_add(1);
    if (handle_delay_ms.load() > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(handle_delay_ms.load()));
    }
    auto line = std::any_cast<std::string>(std::move(request));
    if (silent.load()) {
      ctx.finish();
      return;
    }
    if (line == "CLOSE") {
      ctx.close_after_reply();
      ctx.reply(std::string("BYE"));
      return;
    }
    if (const size_t n = bulk_bytes.load(); n > 0) ctx.send(bulk_payload(n));
    if (defer.load()) {
      // Resolve from a foreign thread — contexts are thread-safe carriers.
      // Resolution responsibility transfers to the handle; this context is
      // dropped unresolved.
      auto deferred = ctx.make_handle();
      std::lock_guard lock(deferred_mutex_);
      deferred_threads_.emplace_back([deferred, line] {
        deferred->reply(std::string("DEFER:") + line);
      });
      return;
    }
    ctx.reply(std::string("ECHO:") + line);
  }

  std::string encode(RequestContext&, std::any response) override {
    encoded.fetch_add(1);
    return std::any_cast<std::string>(std::move(response)) + "\n";
  }

  // Waits for every deferred-reply thread; they call into the server, so
  // the fixture joins them before it destroys the server.
  void join_deferred() {
    std::vector<std::thread> threads;
    {
      std::lock_guard lock(deferred_mutex_);
      threads.swap(deferred_threads_);
    }
    for (auto& t : threads) t.join();
  }

 private:
  std::mutex deferred_mutex_;
  std::vector<std::thread> deferred_threads_;
};

class PipelineFixture : public ::testing::Test {
 protected:
  void start(ServerOptions options = {}) {
    hooks_ = std::make_shared<ProbeHooks>();
    options.listen_port = 0;
    server_ = std::make_unique<Server>(options, hooks_);
    auto status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  void TearDown() override {
    if (hooks_) hooks_->join_deferred();
    if (server_) server_->stop();
  }

  std::shared_ptr<ProbeHooks> hooks_;
  std::unique_ptr<Server> server_;
};

TEST_F(PipelineFixture, GreetingAndEcho) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  EXPECT_EQ(client.read_until("HELLO\n").substr(0, 6), "HELLO\n");
  client.send_all("abc\n");
  EXPECT_NE(client.read_until("ECHO:abc\n").find("ECHO:abc"),
            std::string::npos);
  EXPECT_EQ(hooks_->connects.load(), 1);
}

TEST_F(PipelineFixture, OnCloseFiresWhenPeerDisconnects) {
  start();
  {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    client.read_until("HELLO\n");
  }
  for (int i = 0; i < 300 && hooks_->closes.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(hooks_->closes.load(), 1);
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(PipelineFixture, CloseAfterReplySendsThenCloses) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("CLOSE\n");
  const auto data = client.read_some();  // reads until server closes
  EXPECT_NE(data.find("BYE"), std::string::npos);
  for (int i = 0; i < 300 && server_->connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(PipelineFixture, FinishWithoutReplyKeepsConnectionUsable) {
  start();
  hooks_->silent = true;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("one\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hooks_->silent = false;
  client.send_all("two\n");
  EXPECT_NE(client.read_until("ECHO:two\n").find("ECHO:two"),
            std::string::npos);
  EXPECT_EQ(hooks_->handled.load(), 2);
}

TEST_F(PipelineFixture, DeferredReplyFromForeignThread) {
  start();
  hooks_->defer = true;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("x\n");
  EXPECT_NE(client.read_until("DEFER:x\n").find("DEFER:x"),
            std::string::npos);
}

TEST_F(PipelineFixture, PipelinedLinesAllEchoed) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("a\nb\nc\n");
  const auto data = client.read_until("ECHO:c\n");
  EXPECT_NE(data.find("ECHO:a\n"), std::string::npos);
  EXPECT_NE(data.find("ECHO:b\n"), std::string::npos);
  EXPECT_NE(data.find("ECHO:c\n"), std::string::npos);
}

TEST_F(PipelineFixture, LargeReplySurvivesBackpressure) {
  // A reply far larger than the socket buffer must drain via writable
  // events while the client reads slowly.
  start();
  hooks_->classify = nullptr;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  // Swap hooks behaviour: echo a megabyte.
  hooks_->silent = false;
  std::string big(1024 * 1024, 'z');
  client.send_all(big.substr(0, 100) + "\n");  // request is small
  // Server echoes 100 z's; now ask again with server-side inflation instead:
  // reuse echo but send many pipelined lines to build a large outbound sum.
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "0123456789012345678901234567890123456789\n";
  client.send_all(burst);
  size_t received = 0;
  const size_t expected = 2000u * 46u;  // "ECHO:" + 40 chars + '\n'
  char buf[8192];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received < expected &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(client.fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    received += static_cast<size_t>(n);
    std::this_thread::sleep_for(std::chrono::microseconds(200));  // slow reader
  }
  EXPECT_GE(received, expected);
}

// ---- Client Component -------------------------------------------------------

TEST_F(PipelineFixture, ConnectPeerEstablishesOutboundCommunicator) {
  start();
  // Raw peer the server connects out to.
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0), 8);
  ASSERT_TRUE(listener.is_ok());
  const uint16_t peer_port = listener.value().local_address().value().port();

  std::atomic<uint64_t> conn_id{0};
  std::atomic<bool> failed{false};
  server_->connect_peer(net::InetAddress::loopback(peer_port),
                        [&](Result<uint64_t> id) {
                          if (id.is_ok()) {
                            conn_id = id.value();
                          } else {
                            failed = true;
                          }
                        });
  // Accept on the raw side.
  Result<net::TcpSocket> accepted = Status::would_block();
  for (int i = 0; i < 2000 && !accepted.is_ok(); ++i) {
    accepted = listener.value().accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.is_ok());
  ASSERT_FALSE(failed.load());
  for (int i = 0; i < 1000 && conn_id.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(conn_id.load(), 0u);
  EXPECT_EQ(server_->connection_count(), 1u);

  // The outbound connection runs the same hooks: greeting arrives...
  ByteBuffer in;
  for (int i = 0; i < 1000 && in.find("HELLO\n") == std::string_view::npos;
       ++i) {
    auto n = accepted.value().read(in);
    (void)n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(in.find("HELLO\n"), std::string_view::npos);
  in.clear();

  // ...and requests sent by the peer are decoded/handled/encoded.
  ByteBuffer out{std::string_view("ping\n")};
  ASSERT_TRUE(accepted.value().write(out).is_ok());
  for (int i = 0; i < 1000 && in.find("ECHO:ping\n") == std::string_view::npos;
       ++i) {
    auto n = accepted.value().read(in);
    (void)n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(in.find("ECHO:ping\n"), std::string_view::npos);
}

TEST_F(PipelineFixture, ConnectPeerFailureReported) {
  start();
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().local_address().value().port();
  }
  std::atomic<bool> failed{false};
  server_->connect_peer(net::InetAddress::loopback(dead_port),
                        [&](Result<uint64_t> id) {
                          failed = !id.is_ok();
                        });
  for (int i = 0; i < 1000 && !failed.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(failed.load());
  EXPECT_EQ(server_->connection_count(), 0u);
}

// ---- event scheduling end-to-end ------------------------------------------------

TEST_F(PipelineFixture, SchedulingPrioritizesUrgentRequests) {
  ServerOptions options;
  options.event_scheduling = true;
  options.priority_quotas = {100, 1};
  options.processor_threads = 1;  // serialize to make ordering observable
  start(options);
  hooks_->classify = [](const std::string& line) {
    return line.rfind("urgent", 0) == 0 ? 0 : 1;
  };
  hooks_->handle_delay_ms = 5;

  // One slow stream of normal requests from client A keeps the worker busy;
  // client B's urgent request must overtake A's queued backlog.
  test::BlockingClient a;
  ASSERT_TRUE(a.connect("127.0.0.1", server_->port()));
  a.read_until("HELLO\n");
  std::string backlog;
  for (int i = 0; i < 20; ++i) {
    backlog += "normal" + std::to_string(i) + "\n";
  }
  a.send_all(backlog);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));

  test::BlockingClient b;
  ASSERT_TRUE(b.connect("127.0.0.1", server_->port()));
  b.read_until("HELLO\n");
  const auto t0 = std::chrono::steady_clock::now();
  b.send_all("urgent\n");
  b.read_until("ECHO:urgent\n", 5000);
  const auto urgent_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // Without priorities the urgent request would wait behind ~20 * 5 ms of
  // per-connection sequential backlog... but requests of one connection are
  // serialized; the backlog consists of A's pipeline. B's urgent request
  // needs only ~1-2 service slots.
  EXPECT_LT(urgent_ms, 60) << "urgent request waited behind normal backlog";
}

// ---- overload control end-to-end --------------------------------------------------

TEST_F(PipelineFixture, OverloadSuspendsAndResumesAccepting) {
  ServerOptions options;
  options.overload_control = true;
  options.queue_high_watermark = 3;
  options.queue_low_watermark = 1;
  options.housekeeping_interval = std::chrono::milliseconds(10);
  options.processor_threads = 1;
  start(options);
  hooks_->handle_delay_ms = 30;

  // Flood with pipelined requests from one connection to back up the queue.
  test::BlockingClient flooder;
  ASSERT_TRUE(flooder.connect("127.0.0.1", server_->port()));
  flooder.read_until("HELLO\n");
  std::string burst;
  for (int i = 0; i < 30; ++i) burst += "work\n";
  flooder.send_all(burst);

  // Wait for the controller to trip.
  bool suspended = false;
  for (int i = 0; i < 500; ++i) {
    if (!server_->accepting()) {
      suspended = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Note: a single connection's requests are serialized, so the queue
  // depth stays near 1 — build pressure with several connections instead.
  if (!suspended) {
    std::vector<std::unique_ptr<test::BlockingClient>> clients;
    for (int c = 0; c < 8; ++c) {
      auto client = std::make_unique<test::BlockingClient>();
      ASSERT_TRUE(client->connect("127.0.0.1", server_->port()));
      client->send_all("work\nwork\nwork\n");
      clients.push_back(std::move(client));
    }
    for (int i = 0; i < 1000; ++i) {
      if (!server_->accepting()) {
        suspended = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(suspended);
    clients.clear();
  }
  // After the backlog drains the acceptor resumes.
  for (int i = 0; i < 2000 && !server_->accepting(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(server_->accepting());
}

// ---- graceful drain -----------------------------------------------------------------

TEST_F(PipelineFixture, DrainWaitsForInFlightWork) {
  start();
  hooks_->handle_delay_ms = 50;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("slow\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // in-flight
  const bool idle = server_->drain(std::chrono::seconds(3));
  EXPECT_TRUE(idle);
  // The in-flight request was answered before shutdown.
  const auto data = client.read_some();
  EXPECT_NE(data.find("ECHO:slow"), std::string::npos);
}

TEST_F(PipelineFixture, DrainTimesOutOnStuckWork) {
  start();
  hooks_->handle_delay_ms = 1500;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("stuck\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(server_->drain(std::chrono::milliseconds(100)));
}

TEST(ServerLifecycle, FailedStartDoesNotHangOnDestruction) {
  ServerOptions options;
  options.dispatcher_threads = 0;  // invalid: start() must fail
  auto hooks = std::make_shared<ProbeHooks>();
  {
    Server server(options, hooks);
    EXPECT_FALSE(server.start().is_ok());
    EXPECT_TRUE(server.drain(std::chrono::milliseconds(10)));
    server.stop();  // must be a no-op, not a deadlock
  }                 // destructor must return promptly too
}

TEST(ServerLifecycle, PortAlreadyInUseFailsCleanly) {
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  ServerOptions options;
  options.listen_port = listener.value().local_address().value().port();
  auto hooks = std::make_shared<ProbeHooks>();
  Server server(options, hooks);
  EXPECT_FALSE(server.start().is_ok());
}

TEST_F(PipelineFixture, DrainOnIdleServerIsImmediate) {
  start();
  const auto begin = now();
  EXPECT_TRUE(server_->drain(std::chrono::seconds(5)));
  EXPECT_LT(to_millis(now() - begin), 1000);
}

// ---- multi-dispatcher (O1) stress --------------------------------------------------

TEST_F(PipelineFixture, MultiDispatcherShardsConnections) {
  ServerOptions options;
  options.dispatcher_threads = 3;
  start(options);
  constexpr int kClients = 12;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      test::BlockingClient client;
      if (!client.connect("127.0.0.1", server_->port())) return;
      client.read_until("HELLO\n");
      client.send_all("msg\n");
      if (client.read_until("ECHO:msg\n").find("ECHO:msg") !=
          std::string::npos) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  for (int i = 0; i < 500 && server_->connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->connection_count(), 0u);
}

// ---- request-cycle hops ---------------------------------------------------

// Decorates the COPS-HTTP hooks with a count of Decode calls, and of those
// handed an empty in-buffer (which the hook contract rules out).
class CountingDecodeHooks : public AppHooks {
 public:
  explicit CountingDecodeHooks(std::shared_ptr<AppHooks> inner)
      : inner_(std::move(inner)) {}

  std::atomic<uint64_t> decodes{0};
  std::atomic<uint64_t> empty_decodes{0};

  void on_connect(RequestContext& ctx) override { inner_->on_connect(ctx); }
  void on_close(uint64_t id) override { inner_->on_close(id); }
  DecodeResult decode(RequestContext& ctx, ByteBuffer& in) override {
    decodes.fetch_add(1);
    if (in.empty()) empty_decodes.fetch_add(1);
    return inner_->decode(ctx, in);
  }
  void handle(RequestContext& ctx, std::any request) override {
    inner_->handle(ctx, std::move(request));
  }
  EncodedReply encode_reply(RequestContext& ctx, std::any response) override {
    return inner_->encode_reply(ctx, std::move(response));
  }

 private:
  std::shared_ptr<AppHooks> inner_;
};

// Waits until the processor has run nothing new for a few milliseconds:
// a reply can reach the client before its event's worker finishes counting.
uint64_t settled_processed(const EventProcessor& processor) {
  uint64_t last = processor.processed();
  for (int i = 0; i < 400; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now_processed = processor.processed();
    if (now_processed == last && processor.queue_depth() == 0) break;
    last = now_processed;
  }
  return last;
}

// The paper's request cycle takes one dispatcher→processor→dispatcher round
// trip: a drained reply with nothing buffered re-arms reading on the
// dispatcher instead of queueing a Decode that could only ask for more.
TEST(RequestCycleTest, OneDecodeAndOneProcessorEventPerKeepAliveRequest) {
  test::TempDir dir;
  const std::string body = "<html>one hop</html>";
  dir.write_file("index.html", body);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto hooks = std::make_shared<CountingDecodeHooks>(
      std::make_shared<http::HttpAppHooks>(config));
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  Server server(options, hooks);
  ASSERT_TRUE(server.start().is_ok());

  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // Warm-up: the first GET misses the cache and loads through file I/O.
  ASSERT_NE(test::http_get(server.port(), "/index.html", true, &client)
                .find(body),
            std::string::npos);
  const uint64_t processed_before = settled_processed(server.processor());
  const uint64_t decodes_before = hooks->decodes.load();

  constexpr uint64_t kRequests = 500;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const auto reply = test::http_get(server.port(), "/index.html", true,
                                      &client);
    ASSERT_NE(reply.find(body), std::string::npos) << "request " << i;
  }
  const uint64_t processed = settled_processed(server.processor());
  EXPECT_EQ(hooks->decodes.load() - decodes_before, kRequests);
  EXPECT_EQ(processed - processed_before, kRequests);

  // A pipelined pair in one write: two in-order replies, and the drained
  // second reply still costs no empty-buffer Decode.
  dir.write_file("second.html", "<html>second</html>");
  ASSERT_TRUE(client.send_all(
      "GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /second.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string both = client.read_until("<html>second</html>");
  const size_t first_at = both.find(body);
  ASSERT_NE(first_at, std::string::npos) << both;
  EXPECT_LT(first_at, both.find("<html>second</html>")) << both;
  settled_processed(server.processor());
  EXPECT_EQ(hooks->empty_decodes.load(), 0u);
  server.stop();
}


// ---- raw-socket helpers ----------------------------------------------------

std::string file_pattern(size_t size, char salt) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>('a' + (i * 7 + i / 4093 + salt) % 26);
  }
  return out;
}

// A loopback client socket whose receive buffer is `rcvbuf` bytes, so the
// server's writes block as soon as the kernel buffers fill.
int connect_small_window(uint16_t port, int rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{};
  tv.tv_sec = 10;
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

bool send_all(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads one HTTP reply from `fd` and checks it is a 200 carrying exactly
// `body`; `pending` carries bytes read past the reply into the next call.
::testing::AssertionResult read_reply(int fd, std::string& pending,
                                      const std::string& body) {
  char buf[64 * 1024];
  auto fill = [&] {
    ssize_t n;
    do {
      n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    pending.append(buf, static_cast<size_t>(n));
    return true;
  };
  size_t header_end;
  while ((header_end = pending.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return ::testing::AssertionFailure() << "no reply head";
  }
  const std::string head = pending.substr(0, header_end);
  pending.erase(0, header_end + 4);
  if (head.rfind("HTTP/1.1 200", 0) != 0) {
    return ::testing::AssertionFailure() << "status: " << head;
  }
  const std::string length = "Content-Length: " + std::to_string(body.size());
  if (head.find(length) == std::string::npos) {
    return ::testing::AssertionFailure() << "head: " << head;
  }
  size_t matched = 0;
  while (matched < body.size()) {
    if (pending.empty() && !fill()) {
      return ::testing::AssertionFailure()
             << "body cut at " << matched << " of " << body.size();
    }
    const size_t take = std::min(pending.size(), body.size() - matched);
    if (pending.compare(0, take, body, matched, take) != 0) {
      return ::testing::AssertionFailure() << "body differs near " << matched;
    }
    matched += take;
    pending.erase(0, take);
  }
  return ::testing::AssertionSuccess();
}

// Waits until shard 0's dispatcher has run nothing new for a few
// milliseconds: its count is bumped after a pass, which can be after the
// client already holds the reply.
uint64_t settled_dispatched(const Server& server) {
  uint64_t last = server.events_dispatched(0);
  for (int i = 0; i < 400; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now_dispatched = server.events_dispatched(0);
    if (now_dispatched == last) break;
    last = now_dispatched;
  }
  return last;
}

// The thread that encoded a reply sends it, with or without a processor
// pool (O2): the only dispatcher callback a keep-alive request costs is its
// readable event (two when the reply was posted back for the send).  A
// pipelined burst, whose Decodes O2 = No posts one by one to keep the
// stack bounded, is answered whole and in order.
TEST(RequestCycleTest, OneDispatcherCallbackPerKeepAliveRequest) {
  test::TempDir dir;
  const std::string body = "<html>sent by the processor</html>";
  dir.write_file("index.html", body);
  const std::string other = "<html>the other file</html>";
  dir.write_file("other.html", other);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  for (const bool pool : {true, false}) {
    SCOPED_TRACE(pool ? "O2 = Yes" : "O2 = No");
    auto options = http::CopsHttpServer::default_options();
    options.separate_processor_pool = pool;
    options.listen_port = 0;
    options.housekeeping_interval = std::chrono::hours(1);  // no timer passes
    http::CopsHttpServer server(options, config);
    ASSERT_TRUE(server.start().is_ok());

    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    // Warm-up: each first GET misses the cache and goes to file I/O.
    for (const char* path : {"/index.html", "/other.html"}) {
      ASSERT_NE(test::http_get(server.port(), path, true, &client)
                    .find("</html>"),
                std::string::npos);
    }
    const uint64_t before = settled_dispatched(server.server());

    constexpr uint64_t kRequests = 500;
    for (uint64_t i = 0; i < kRequests; ++i) {
      ASSERT_NE(test::http_get(server.port(), "/index.html", true, &client)
                    .find(body),
                std::string::npos)
          << "request " << i;
    }
    EXPECT_EQ(settled_dispatched(server.server()) - before, kRequests);

    // 300 pipelined GETs and the head of one more in one write; the rest
    // of the last request follows once the 300 replies are read.
    auto get = [](int i) {
      return std::string("GET /") + (i % 2 == 0 ? "index" : "other") +
             ".html HTTP/1.1\r\nHost: t\r\n\r\n";
    };
    constexpr int kPipelined = 300;
    std::string burst;
    for (int i = 0; i < kPipelined; ++i) burst += get(i);
    const std::string last = get(kPipelined);
    const size_t split = last.size() / 2;
    ASSERT_TRUE(client.send_all(burst + last.substr(0, split)));
    std::string pending;
    for (int i = 0; i < kPipelined; ++i) {
      ASSERT_TRUE(read_reply(client.fd(), pending, i % 2 == 0 ? body : other))
          << "pipelined reply " << i;
    }
    EXPECT_TRUE(pending.empty());
    ASSERT_TRUE(client.send_all(last.substr(split)));
    ASSERT_TRUE(read_reply(client.fd(), pending, body));
    EXPECT_TRUE(pending.empty());
    server.stop();
  }
}

// Line echo whose Handle holds each request until the test releases it,
// so the next request can arrive while the previous one is away.
class HeldReplyHooks : public AppHooks {
 public:
  DecodeResult decode(RequestContext&, ByteBuffer& in) override {
    const size_t eol = in.find("\n");
    if (eol == std::string_view::npos) return DecodeResult::need_more();
    std::string line(in.view().substr(0, eol));
    in.consume(eol + 1);
    return DecodeResult::request_ready(std::move(line));
  }
  void handle(RequestContext& ctx, std::any request) override {
    std::lock_guard lock(mutex_);
    held_ = ctx.make_handle();
    line_ = std::any_cast<std::string>(std::move(request));
    handled_.fetch_add(1);
  }
  std::string encode(RequestContext&, std::any response) override {
    return std::any_cast<std::string>(std::move(response)) + "\n";
  }
  // Waits for the `n`th request to reach Handle.
  bool wait_handled(int n) {
    for (int i = 0; i < 1000 && handled_.load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return handled_.load() >= n;
  }
  // Replies to the held request from the calling thread.
  bool release() {
    std::shared_ptr<RequestContext> held;
    std::string line;
    {
      std::lock_guard lock(mutex_);
      held = std::exchange(held_, nullptr);
      line = line_;
    }
    if (!held) return false;
    held->reply("ECHO:" + line);
    return true;
  }

 private:
  std::mutex mutex_;
  std::shared_ptr<RequestContext> held_;
  std::string line_;
  std::atomic<int> handled_{0};
};

// Request 2 arrives while request 1 is held in Handle, so the dispatcher
// drops read interest and the reply cannot hand the read token straight
// back: it is still written by the releasing thread, the re-arm goes to
// the dispatcher, and request 2 is read and answered after it.
TEST(RequestCycleTest, RequestArrivingDuringHandleIsAnsweredInOrder) {
  auto hooks = std::make_shared<HeldReplyHooks>();
  ServerOptions options;
  options.listen_port = 0;
  Server server(options, hooks);
  ASSERT_TRUE(server.start().is_ok());

  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_all("one\n"));
  ASSERT_TRUE(hooks->wait_handled(1));
  ASSERT_TRUE(client.send_all("two\n"));
  // Let the dispatcher see request 2 while request 1 is away.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(hooks->release());
  ASSERT_TRUE(hooks->wait_handled(2));
  ASSERT_TRUE(hooks->release());
  EXPECT_EQ(client.read_until("ECHO:two\n"), "ECHO:one\nECHO:two\n");
  server.stop();
}

// ---- hazards of sending from the processor ---------------------------------

// A Handle that send()s more than the socket buffers hold and then replies:
// the send's write blocks and leaves its tail to the dispatcher, and the
// reply queues behind it.  The peer reads slowly, gets the bytes in hook
// order, and is served its next request on the same connection.
void expect_reply_queues_behind_blocked_send(Server& server,
                                             ProbeHooks& hooks) {
  constexpr size_t kBulkBytes = 8 << 20;  // past tcp_wmem max + the window
  hooks.bulk_bytes = kBulkBytes;
  const int fd = connect_small_window(server.port(), 16 * 1024);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "one\n"));
  for (int i = 0; i < 1000 && hooks.handled.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const std::string expected =
      "HELLO\n" + bulk_payload(kBulkBytes) + "ECHO:one\n";
  std::string received;
  char buf[16 * 1024];
  while (received.size() < expected.size()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected) << "bytes out of hook order";

  hooks.bulk_bytes = 0;
  ASSERT_TRUE(send_all(fd, "two\n"));
  std::string next;
  while (next.size() < 9) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    next.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(next, "ECHO:two\n");

  ::close(fd);
  for (int i = 0; i < 1000 && server.connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.connection_count(), 0u);
}

TEST_F(PipelineFixture, ReplyQueuesBehindBlockedSendWithProcessorPool) {
  ServerOptions options;
  options.separate_processor_pool = true;
  start(options);
  expect_reply_queues_behind_blocked_send(*server_, *hooks_);
}

TEST_F(PipelineFixture, ReplyQueuesBehindBlockedSendWithoutProcessorPool) {
  ServerOptions options;
  options.separate_processor_pool = false;
  start(options);
  expect_reply_queues_behind_blocked_send(*server_, *hooks_);
}

uint64_t requests_served(Server& server) {
  uint64_t total = 0;
  for (const auto& conn : server.stats_snapshot().connections) {
    total += conn.requests;
  }
  return total;
}

// A peer that asks for large files and reads nothing cannot make the
// server buffer replies without bound: a reply that hands the read token
// back before a write that then blocks takes it back, so at most one more
// request is read until the peer drains.  Then every reply arrives whole
// and in order.
TEST(RequestCycleTest, NonReadingPeerGetsAtMostTwoRequestsServed) {
  test::TempDir dir;
  // Each reply is larger than the server's send buffer can ever grow
  // (tcp_wmem max, 4 MiB by default) plus the client's small window.
  constexpr size_t kFileBytes = 8 << 20;
  const std::string bodies[2] = {file_pattern(kFileBytes, 0),
                                 file_pattern(kFileBytes, 1)};
  dir.write_file("a.bin", bodies[0]);
  dir.write_file("b.bin", bodies[1]);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  options.profiling = true;  // per-connection request totals
  options.stats_export = StatsExport::kAdminHttp;
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());

  const int fd = connect_small_window(server.port(), 16 * 1024);
  ASSERT_GE(fd, 0);
  auto get = [](int i) {
    return std::string("GET /") + (i % 2 == 0 ? "a" : "b") +
           ".bin HTTP/1.1\r\nHost: t\r\n\r\n";
  };
  constexpr int kRequests = 8;
  // One request at a time: each would find the in-buffer empty and hand
  // the read token back before a write that then blocks.
  uint64_t most = 0;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(send_all(fd, get(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    most = std::max(most, requests_served(server.server()));
  }
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    most = std::max(most, requests_served(server.server()));
  }
  EXPECT_GE(most, 1u);
  EXPECT_LE(most, 2u);

  const int rcvbuf = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  std::string pending;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(read_reply(fd, pending, bodies[i % 2])) << "reply " << i;
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(requests_served(server.server()), uint64_t{kRequests});
  ::close(fd);
  server.stop();
}

// Peers that reset while their reply is being written — before the first
// byte or midway — must not leak the connection or disturb other peers'
// replies.  Files below 256 KiB are cached and go out with writev, larger
// ones through sendfile; both are covered.
TEST(RequestCycleTest, PeersResettingMidReplyLeaveNoConnection) {
  test::TempDir dir;
  const std::string bodies[2] = {file_pattern(200 * 1024, 2),
                                 file_pattern(2 << 20, 3)};
  dir.write_file("mid.bin", bodies[0]);
  dir.write_file("big.bin", bodies[1]);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 16;
  std::atomic<int> verified{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> peers;
  for (int t = 0; t < kThreads; ++t) {
    peers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int which = (t + round) % 2;
        const int fd = connect_small_window(server.port(), 16 * 1024);
        if (fd < 0) {
          failures.fetch_add(1);
          continue;
        }
        const std::string path = which == 0 ? "/mid.bin" : "/big.bin";
        if (!send_all(fd, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n")) {
          failures.fetch_add(1);
        }
        switch (round % 4) {
          case 0:
            break;  // reset at once: the reply may not have started
          case 1: {
            char byte;
            ::recv(fd, &byte, 1, 0);  // reset once the reply is flowing
            break;
          }
          default: {
            std::string pending;
            if (read_reply(fd, pending, bodies[which])) {
              verified.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            ::close(fd);
            continue;
          }
        }
        const linger reset{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
        ::close(fd);
      }
    });
  }
  for (auto& peer : peers) peer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(verified.load(), kThreads * kRounds / 2);
  for (int i = 0; i < 500 && server.server().connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.server().connection_count(), 0u);
  server.stop();
}

// A GET whose head is `head_bytes` long (padded with one X-Pad header), or
// the shortest head when `head_bytes` is 0.
std::string padded_get(const std::string& path, size_t head_bytes) {
  std::string head = "GET " + path + " HTTP/1.1\r\nHost: t\r\n";
  const std::string pad_name = "X-Pad: ";
  if (head_bytes > 0) {
    head += pad_name +
            std::string(head_bytes - head.size() - pad_name.size() - 4, 'p') +
            "\r\n";
  }
  return head + "\r\n";
}

// A connection holds a pooled read block only while a request is in
// flight: the dispatcher acquires one on readable, and the processor that
// writes the reply returns it.  Small GETs alternate with GETs whose head
// is just under max_header_bytes and arrives in 1 KiB pieces, so the head
// outgrows the 16 KiB block mid-request; then one pipelined burst straddles
// a block boundary.  Every reply arrives whole and in order.
TEST(RequestCycleTest, ReadBlocksCycleThroughThePoolAcrossLargeHeads) {
  test::TempDir dir;
  const std::string bodies[2] = {file_pattern(300, 4), file_pattern(5000, 5)};
  dir.write_file("small.html", bodies[0]);
  dir.write_file("other.html", bodies[1]);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = connect_small_window(server.port(), 1 << 20);
  ASSERT_GE(fd, 0);

  const size_t large_head = http::ParseLimits{}.max_header_bytes - 64;
  std::string pending;
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(send_all(fd, padded_get("/small.html", 0)));
    ASSERT_TRUE(read_reply(fd, pending, bodies[0])) << "round " << round;
    const std::string large = padded_get("/other.html", large_head);
    for (size_t at = 0; at < large.size(); at += 1024) {
      ASSERT_TRUE(send_all(fd, large.substr(at, 1024)));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(read_reply(fd, pending, bodies[1])) << "round " << round;
  }

  // 40 requests of ~600 B in one write: about 24 KiB, so the burst crosses
  // the end of a 16 KiB block.
  constexpr int kBurst = 40;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += padded_get(i % 2 == 0 ? "/small.html" : "/other.html", 600);
  }
  ASSERT_TRUE(send_all(fd, burst));
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(read_reply(fd, pending, bodies[i % 2])) << "burst " << i;
  }
  EXPECT_TRUE(pending.empty());
  ::close(fd);
  server.stop();
}

// Several hundred keep-alive connections on the preset's one shard have a
// request in flight at once, round after round, with adaptive overload
// control on: each round sends every connection the first half of a GET,
// waits until the dispatcher has taken a read block for each, then sends
// the second halves.  Read blocks cycle through the pool once per request,
// and the pool keeps a free block for every connection, so over all the
// rounds the recyclers miss at most once per connection (plus a few slab
// chunks), and neither the pool-miss nor the heap-bytes monitor engages a
// tier.  The loop-delay target is set far out of reach: it measures the
// host's speed, not the pools.
TEST(RequestCycleTest, ConcurrentBurstsOnOneShardEngageNoOverloadTier) {
  constexpr size_t kConnections = 300;
  constexpr int kRounds = 12;
  test::TempDir dir;
  const std::string body = file_pattern(300, 6);
  dir.write_file("index.html", body);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto options = http::CopsHttpServer::default_options();
  options.listen_port = 0;
  options.overload_control = true;
  options.overload_mode = OverloadMode::kAdaptive;
  options.overload_target_delay = std::chrono::seconds(10);
  options.overload_max_heap_bytes = 32u << 20;
  http::CopsHttpServer server(options, config);
  ASSERT_TRUE(server.start().is_ok());
  auto& core = server.server();
  ASSERT_EQ(options.dispatcher_threads, 1);

  std::vector<int> fds;
  for (size_t i = 0; i < kConnections; ++i) {
    const int fd = connect_small_window(server.port(), 64 * 1024);
    ASSERT_GE(fd, 0) << "connection " << i;
    fds.push_back(fd);
    // Keep the acceptor's backlog short of overflowing.
    for (int w = 0; i % 64 == 63 && w < 1000 && core.connection_count() <= i;
         ++w) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::string request = "GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n";
  const size_t split = request.size() / 2;
  auto acquires = [&core] {
    const auto profile = core.profile();
    return profile.pool_hits + profile.pool_misses;
  };
  const uint64_t misses_before = core.profile().pool_misses;
  int max_tier = 0;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t acquired = acquires();
    for (const int fd : fds) ASSERT_TRUE(send_all(fd, request.substr(0, split)));
    for (int w = 0; w < 2000 && acquires() < acquired + kConnections; ++w) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (const int fd : fds) ASSERT_TRUE(send_all(fd, request.substr(split)));
    for (const int fd : fds) {
      std::string pending;
      ASSERT_TRUE(read_reply(fd, pending, body)) << "round " << round;
    }
    max_tier = std::max(max_tier,
                        static_cast<int>(core.overload_manager()->tier()));
  }
  // Let the control loop sample the final counters.
  const uint64_t ticks = core.overload_manager()->snapshot().ticks;
  for (int i = 0; i < 200 && core.overload_manager()->snapshot().ticks <
                                 ticks + 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto snapshot = core.overload_manager()->snapshot();
  max_tier = std::max(max_tier, static_cast<int>(snapshot.tier));

  EXPECT_LE(core.profile().pool_misses - misses_before, kConnections + 16);
  EXPECT_EQ(max_tier, static_cast<int>(OverloadTier::kNone));
  for (const auto& monitor : snapshot.monitors) {
    EXPECT_LT(monitor.smoothed, 0.5) << monitor.name;
  }
  for (const int fd : fds) ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace cops::nserver
