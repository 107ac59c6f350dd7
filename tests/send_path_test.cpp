// Send-path tests: SendQueue segment mechanics, writev resumption under
// injected partial writes / EINTR / EAGAIN, sendfile partial sends, and the
// guarantee that the segmented reply path puts exactly the bytes of
// HttpResponse::serialize() on the wire — per reply shape at the encode
// level, and for whole reply streams over simnet.  Loopback tests check the
// 256 KiB sendfile rule with default options, the bytes-copied budget of a
// cached reply, and a file truncated mid-sendfile.
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/send_queue.hpp"
#include "http/http_server.hpp"
#include "http/response.hpp"
#include "nserver/stats.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/serialize_recorder.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

std::string iov_to_string(const struct iovec& iov) {
  return std::string(static_cast<const char*>(iov.iov_base), iov.iov_len);
}

TEST(SendQueueTest, FillIovecGathersLeadingMemoryRun) {
  SendQueue queue;
  EncodedReply reply;
  reply.add_owned("HTTP/1.1 200 OK\r\n\r\n");
  auto body = std::make_shared<std::string>("shared-body");
  reply.add_shared(body, body->data(), body->size());
  queue.push(std::move(reply));

  struct iovec iov[4];
  const int count = queue.fill_iovec(iov, 4);
  ASSERT_EQ(count, 2);
  EXPECT_EQ(iov_to_string(iov[0]), "HTTP/1.1 200 OK\r\n\r\n");
  EXPECT_EQ(iov_to_string(iov[1]), "shared-body");
  EXPECT_EQ(queue.readable(), 19u + 11u);
}

TEST(SendQueueTest, ConsumeAdvancesAcrossAndWithinSegments) {
  SendQueue queue;
  queue.push_owned("abcdef");
  queue.push_owned("ghij");
  // Mid-segment consume: 4 bytes leaves "ef" at the front.
  queue.consume(4);
  struct iovec iov[4];
  ASSERT_EQ(queue.fill_iovec(iov, 4), 2);
  EXPECT_EQ(iov_to_string(iov[0]), "ef");
  EXPECT_EQ(iov_to_string(iov[1]), "ghij");
  // Consume across the segment boundary.
  queue.consume(3);
  ASSERT_EQ(queue.fill_iovec(iov, 4), 1);
  EXPECT_EQ(iov_to_string(iov[0]), "hij");
  queue.consume(3);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.readable(), 0u);
}

TEST(SendQueueTest, FileSegmentStopsTheGatherRun) {
  SendQueue queue;
  EncodedReply reply;
  reply.add_owned("headers");
  auto owner = std::make_shared<int>(42);
  reply.add_file(owner, /*fd=*/7, /*offset=*/100, /*len=*/50);
  queue.push(std::move(reply));

  struct iovec iov[4];
  ASSERT_EQ(queue.fill_iovec(iov, 4), 1);  // stops before the file slice
  queue.consume(7);
  EXPECT_TRUE(queue.front_is_file());
  EXPECT_EQ(queue.fill_iovec(iov, 4), 0);
  EXPECT_EQ(queue.front_file_fd(), 7);
  EXPECT_EQ(queue.front_file_offset(), 100u);
  EXPECT_EQ(queue.front_file_remaining(), 50u);
  // Partial sendfile result advances the file offset.
  queue.consume_file(20);
  EXPECT_EQ(queue.front_file_offset(), 120u);
  EXPECT_EQ(queue.front_file_remaining(), 30u);
  queue.consume_file(30);
  EXPECT_TRUE(queue.empty());
}

TEST(SendQueueTest, EmptySegmentsAreDropped) {
  SendQueue queue;
  queue.push_owned("");
  EncodedReply reply;
  reply.add_owned("");
  queue.push(std::move(reply));
  EXPECT_TRUE(queue.empty());
}

TEST(SendQueueTest, CopiedBytesCountsOwnedNotShared) {
  EncodedReply reply;
  reply.add_owned("0123456789");
  auto body = std::make_shared<std::string>(1000, 'b');
  reply.add_shared(body, body->data(), body->size());
  EXPECT_EQ(reply.copied_bytes, 10u);
  ASSERT_EQ(reply.segments.size(), 2u);
  EXPECT_EQ(reply.segments[0].len + reply.segments[1].len, 1010u);
}

// HttpResponse::serialize() must reserve the exact final size up front.  A
// geometric append-growth would leave capacity well above size for a large
// body; exact reserve leaves them equal.
TEST(PerfSmokeTest, SerializeReservesExactly) {
  http::HttpResponse resp;
  resp.status = http::StatusCode::kOk;
  resp.set_header("Content-Type", "application/octet-stream");
  resp.body.assign(8u * 1024u * 1024u, 'x');
  const std::string wire = resp.serialize();
  EXPECT_EQ(wire.capacity(), wire.size());
}

// Drains a reply the way Connection does — gathered memory runs, file
// slices in between — except that file slices are read with pread.
std::string gather(EncodedReply reply) {
  SendQueue queue;
  queue.push(std::move(reply));
  std::string out;
  while (!queue.empty()) {
    if (queue.front_is_file()) {
      std::string slice(queue.front_file_remaining(), '\0');
      const ssize_t n =
          ::pread(queue.front_file_fd(), slice.data(), slice.size(),
                  static_cast<off_t>(queue.front_file_offset()));
      if (n <= 0) return out + "<pread failed>";
      out.append(slice.data(), static_cast<size_t>(n));
      queue.consume_file(static_cast<size_t>(n));
      continue;
    }
    struct iovec iov[16];
    const int count = queue.fill_iovec(iov, 16);
    size_t taken = 0;
    for (int i = 0; i < count; ++i) {
      out.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
      taken += iov[i].iov_len;
    }
    queue.consume(taken);
  }
  return out;
}

TEST(EncodeSegmentsTest, GatheredSegmentsEqualSerializeForEveryReplyShape) {
  test::TempDir dir;
  std::string big(nserver::kSendfileMinBytes + 4321, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 7) % 26);
  }
  dir.write_file("big.bin", big);
  dir.write_file("small.txt", "small cached body\n");
  dir.write_file("empty.txt", "");
  const std::string big_path = dir.str() + "/big.bin";

  auto fd_backed = nserver::FileIoService::load_file(big_path);
  ASSERT_TRUE(fd_backed.is_ok());
  ASSERT_GE(fd_backed.value()->fd, 0) << "256 KiB+ file was not opened";
  auto in_memory = nserver::FileIoService::read_file(big_path);
  auto small = nserver::FileIoService::load_file(dir.str() + "/small.txt");
  auto empty = nserver::FileIoService::load_file(dir.str() + "/empty.txt");
  ASSERT_TRUE(in_memory.is_ok() && small.is_ok() && empty.is_ok());
  ASSERT_LT(small.value()->fd, 0);

  struct Shape {
    const char* name;
    nserver::FileDataPtr file;  // null = inline body
    bool head_only;
  };
  const std::vector<Shape> shapes = {
      {"cached", small.value(), false},
      {"fd-backed", fd_backed.value(), false},
      {"HEAD cached", small.value(), true},
      {"HEAD fd-backed", fd_backed.value(), true},
      {"inline body", nullptr, false},
      {"empty file", empty.value(), false},
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    http::HttpResponse resp =
        shape.file ? http::HttpResponse{}
                   : http::make_error_response(http::StatusCode::kNotFound,
                                               /*keep_alive=*/true);
    resp.set_header("Date", "Sun, 06 Nov 1994 08:49:37 GMT");
    if (shape.file) {
      resp.file = shape.file;
      resp.set_header("Content-Type", "application/octet-stream");
    }
    resp.head_only = shape.head_only;
    http::HttpResponse reference = resp;
    if (shape.file == fd_backed.value()) reference.file = in_memory.value();
    EXPECT_EQ(gather(http::encode_segments(resp)), reference.serialize());
  }
}

}  // namespace
}  // namespace cops

namespace cops::simnet {
namespace {

using std::chrono::milliseconds;

std::string small_file() { return "alpha file: the quick brown fox\n"; }
std::string big_file(size_t size) {
  std::string out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    out += static_cast<char>('A' + (i * 7) % 26);
  }
  return out;
}

// The fixed scenario every send-path run replays: cached GETs, a HEAD, a
// 404, a 304, then a closing GET.
std::string scenario_wire() {
  return "GET /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
         "GET /b.bin HTTP/1.1\r\nHost: sim\r\n\r\n"
         "HEAD /b.bin HTTP/1.1\r\nHost: sim\r\n\r\n"
         "GET /missing.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
         "GET /a.txt HTTP/1.1\r\nHost: sim\r\n"
         "If-Modified-Since: Sun, 01 Jan 2040 00:00:00 GMT\r\n\r\n"
         "GET /b.bin HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n";
}

struct WireResponse {
  int status = 0;
  size_t content_length = 0;
  std::string body;
};

// Splits a reply stream into responses.  `body_suppressed` marks responses
// whose headers announce a length but carry no body bytes (HEAD, 304).
bool split_responses(const std::string& stream,
                     const std::vector<bool>& body_suppressed,
                     std::vector<WireResponse>& out, std::string& error) {
  size_t pos = 0;
  for (bool suppressed : body_suppressed) {
    const size_t header_end = stream.find("\r\n\r\n", pos);
    if (header_end == std::string::npos) {
      error = "missing header terminator for response " +
              std::to_string(out.size());
      return false;
    }
    const std::string head = stream.substr(pos, header_end - pos);
    WireResponse resp;
    if (head.rfind("HTTP/1.1 ", 0) != 0) {
      error = "bad status line: " + head.substr(0, 40);
      return false;
    }
    resp.status = std::stoi(head.substr(9, 3));
    if (const size_t cl = head.find("Content-Length: ");
        cl != std::string::npos) {
      resp.content_length = std::stoul(head.substr(cl + 16));
    }
    pos = header_end + 4;
    if (!suppressed) {
      if (pos + resp.content_length > stream.size()) {
        error = "truncated body for response " + std::to_string(out.size());
        return false;
      }
      resp.body = stream.substr(pos, resp.content_length);
      pos += resp.content_length;
    }
    out.push_back(std::move(resp));
  }
  if (pos != stream.size()) {
    error = "trailing bytes after last response: " +
            std::to_string(stream.size() - pos);
    return false;
  }
  return true;
}

struct RunResult {
  std::string received;
  std::vector<std::string> trace;
  // Concatenated HttpResponse::serialize() of every reply (the reference).
  std::string expected;
};

// Replays the fixed scenario through the full COPS-HTTP stack over simnet
// with the given fault plan; /b.bin has `big_bytes` bytes.
RunResult run_scenario(uint64_t seed, const FaultPlan& plan,
                       size_t big_bytes = 2000) {
  SimEngine engine(seed, plan);
  SCOPED_TRACE("send-path replay seed=" + std::to_string(seed));

  test::TempDir dir;
  dir.write_file("a.txt", small_file());
  dir.write_file("b.bin", big_file(big_bytes));
  // Pin the docroot mtimes: Last-Modified must not depend on which
  // wall-clock second this run happened to create its files in.
  const auto fixed_mtime = std::chrono::file_clock::from_sys(
      std::chrono::sys_seconds(std::chrono::seconds(784111777)));
  std::filesystem::last_write_time(dir.path() / "a.txt", fixed_mtime);
  std::filesystem::last_write_time(dir.path() / "b.bin", fixed_mtime);

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8090;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  auto hooks = std::make_shared<test::SerializeRecorder>(config);
  nserver::Server server(std::move(options), hooks);
  auto started = server.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();
  if (!started.is_ok()) return {};

  auto* client = engine.new_client();
  engine.at(milliseconds(1), [client] { client->connect(8090); });
  // Two chunks: the split lands inside the pipelined request run so the
  // decode loop and the send queue overlap.
  const std::string wire = scenario_wire();
  const std::string first = wire.substr(0, wire.size() / 2);
  const std::string second = wire.substr(wire.size() / 2);
  engine.at(milliseconds(2), [client, first] { client->send(first); });
  engine.at(milliseconds(4), [client, second] { client->send(second); });

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "scenario did not quiesce\n" << engine.trace_text();
  server.stop();

  EXPECT_TRUE(client->peer_closed());
  EXPECT_TRUE(engine.failures().empty());
  return {client->received(), engine.trace(), hooks->expected()};
}

// body_suppressed flags for scenario_wire()'s responses.
std::vector<bool> scenario_body_suppressed() {
  // GET a, GET b, HEAD b (suppressed), 404, 304 (suppressed), GET b.
  return {false, false, true, false, true, false};
}

void check_scenario_responses(const RunResult& run, size_t big_bytes = 2000) {
  std::vector<WireResponse> responses;
  std::string error;
  ASSERT_TRUE(split_responses(run.received, scenario_body_suppressed(),
                              responses, error))
      << error << "\nreceived:\n" << run.received.substr(0, 2000);
  ASSERT_EQ(responses.size(), 6u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, small_file());
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[1].body, big_file(big_bytes));
  // HEAD: full header block with the real Content-Length, zero body bytes —
  // split_responses() above fails on any stray body bytes.
  EXPECT_EQ(responses[2].status, 200);
  EXPECT_EQ(responses[2].content_length, big_bytes);
  EXPECT_EQ(responses[3].status, 404);
  EXPECT_EQ(responses[4].status, 304);
  EXPECT_EQ(responses[5].status, 200);
  EXPECT_EQ(responses[5].body, big_file(big_bytes));
}

bool trace_mentions(const std::vector<std::string>& trace, const char* op) {
  for (const auto& line : trace) {
    if (line.find(op) != std::string::npos) return true;
  }
  return false;
}

// A write-fault storm: nearly every writev is cut short (possibly inside
// any iovec of the gather), preceded by EINTR/EAGAIN noise, over a channel
// whose capacity is far below the 2000-byte body.  The drain loop must
// resume mid-segment and still put every reply on the wire intact.
FaultPlan write_storm() {
  FaultPlan plan;
  plan.write_eintr = 0.30;
  plan.write_eagain = 0.30;
  plan.short_write = 0.90;
  plan.channel_capacity = 61;
  return plan;
}

class SendPathSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(SendPathSeedTest, WritevResumesMidSegmentUnderWriteStorm) {
  const auto seed = static_cast<uint64_t>(GetParam());
  auto run = run_scenario(seed, write_storm());
  check_scenario_responses(run);
  EXPECT_TRUE(trace_mentions(run.trace, "writev"));
}

TEST_P(SendPathSeedTest, SendfileResumesPartialSends) {
  const auto seed = static_cast<uint64_t>(GetParam());
  // /b.bin at the sendfile threshold: its two GETs go out via sendfile, in
  // <=97-byte slices under the chaos capacity.
  const size_t big_bytes = nserver::kSendfileMinBytes;
  auto run = run_scenario(seed, FaultPlan::chaos(), big_bytes);
  check_scenario_responses(run, big_bytes);
  EXPECT_TRUE(trace_mentions(run.trace, "sendfile"));
}

// "Copy" is the flat HttpResponse::serialize() of each reply; the server's
// segmented writev path must put the identical byte stream on the wire.
TEST_P(SendPathSeedTest, CopyAndWritevProduceByteIdenticalStreams) {
  const auto seed = static_cast<uint64_t>(GetParam());
  auto run = run_scenario(seed, FaultPlan::none());
  check_scenario_responses(run);
  ASSERT_EQ(run.received.size(), run.expected.size())
      << "serialized and gathered reply streams differ in length";
  ASSERT_EQ(run.received, run.expected);
}

TEST_P(SendPathSeedTest, CopyAndWritevIdenticalUnderChaosToo) {
  const auto seed = static_cast<uint64_t>(GetParam());
  auto run = run_scenario(seed, FaultPlan::chaos());
  check_scenario_responses(run);
  ASSERT_EQ(run.received, run.expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SendPathSeedTest, ::testing::Range(1, 7),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cops::simnet

// ---- loopback: the reply path with default options ---------------------------

namespace cops {
namespace {

// Value of one Prometheus sample line ("name value") in `text`.
uint64_t metric(const std::string& text, const std::string& name) {
  const size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + name.size() + 2));
}

struct LoopbackServer {
  explicit LoopbackServer(const test::TempDir& dir)
      : server(options(), config(dir)) {}
  static nserver::ServerOptions options() {
    auto options = http::CopsHttpServer::default_options();
    options.profiling = true;  // the cops_send_* counters
    return options;
  }
  static http::HttpServerConfig config(const test::TempDir& dir) {
    http::HttpServerConfig config;
    config.doc_root = dir.str();
    return config;
  }
  // Prometheus text of the server's counters, after a full stop so every
  // reactor-thread update is visible.
  std::string stop_and_scrape() {
    server.stop();
    return nserver::render_prometheus(server.server().stats_snapshot());
  }
  http::CopsHttpServer server;
};

std::string body_of(const std::string& response) {
  const size_t header_end = response.find("\r\n\r\n");
  return header_end == std::string::npos ? std::string()
                                         : response.substr(header_end + 4);
}

TEST(ReplyPathServerTest, LargeFilesGoOutThroughSendfileByDefault) {
  test::TempDir dir;
  const std::string big(nserver::kSendfileMinBytes, 'z');
  dir.write_file("big.bin", big);
  LoopbackServer srv(dir);
  ASSERT_TRUE(srv.server.start().is_ok());
  EXPECT_EQ(body_of(test::http_get(srv.server.port(), "/big.bin")), big);
  const std::string stats = srv.stop_and_scrape();
  EXPECT_GE(metric(stats, "cops_send_sendfile_bytes_total"), big.size())
      << stats;
}

TEST(ReplyPathServerTest, CachedReplyCopiesOnlyTheHeaderBlock) {
  test::TempDir dir;
  const std::string body(64 * 1024, 'c');
  dir.write_file("cached.bin", body);
  LoopbackServer srv(dir);
  ASSERT_TRUE(srv.server.start().is_ok());
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.server.port()));
  size_t header_bytes = 0;
  for (int i = 0; i < 2; ++i) {  // a miss that fills the cache, then a hit
    const std::string reply = test::http_get(srv.server.port(), "/cached.bin",
                                             /*keep_alive=*/true, &client);
    ASSERT_EQ(body_of(reply), body);
    header_bytes += reply.find("\r\n\r\n") + 4;
  }
  client.close();
  const std::string stats = srv.stop_and_scrape();
  EXPECT_EQ(metric(stats, "cops_send_sendfile_bytes_total"), 0u);
  EXPECT_LE(metric(stats, "cops_send_bytes_copied_total"), header_bytes)
      << stats;
}

// A descriptor-backed reply whose file shrinks after it was opened: the
// sendfile loop hits end of file short of Content-Length, the connection
// closes, and the server keeps serving.
TEST(ReplyPathServerTest, FileTruncatedMidSendfileClosesShortAndServerRecovers) {
  test::TempDir dir;
  const std::string path = dir.str() + "/shrinking.bin";
  // Sparse, and far larger than the loopback socket buffers: the server is
  // still inside the sendfile loop when the client stops reading.
  constexpr off_t kFileBytes = 64 * 1024 * 1024;
  dir.write_file("shrinking.bin", "");
  ASSERT_EQ(::truncate(path.c_str(), kFileBytes), 0);
  dir.write_file("ok.txt", "still serving\n");
  LoopbackServer srv(dir);
  ASSERT_TRUE(srv.server.start().is_ok());

  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.server.port()));
  ASSERT_TRUE(client.send_all(
      "GET /shrinking.bin HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n"));
  const std::string head = client.read_until("\r\n\r\n");
  ASSERT_NE(head.find("Content-Length: " + std::to_string(kFileBytes)),
            std::string::npos)
      << head.substr(0, 300);
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  const std::string rest = client.read_some(0, /*timeout_ms=*/10000);
  const size_t body_bytes = head.size() - (head.find("\r\n\r\n") + 4) +
                            rest.size();
  EXPECT_LT(body_bytes, static_cast<size_t>(kFileBytes))
      << "connection was not cut short of Content-Length";
  // The server closed the connection: the stream is at its end, not idle.
  pollfd pfd{client.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1) << "connection left open";
  char byte;
  EXPECT_LE(::recv(client.fd(), &byte, 1, MSG_DONTWAIT), 0);

  EXPECT_EQ(body_of(test::http_get(srv.server.port(), "/ok.txt")),
            "still serving\n");
  srv.server.stop();
}

}  // namespace
}  // namespace cops
