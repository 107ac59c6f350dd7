// Chunked transfer-coding tests (chaos label).
//
// Three layers:
//   1. ChunkedDecoder unit tests — split invariance (byte-by-byte feeds),
//      extensions, trailers, and every rejection class;
//   2. simnet upload differentials — a chunked POST dripped one octet per
//      virtual tick through a full nserver echo stack decodes to exactly
//      the bytes a Content-Length POST of the same body produces, under
//      fault-free and chaos plans, bit-identically per seed;
//   3. simnet download checks — replies are Content-Length framed (HEAD
//      included) and carry the file bytes intact, over writev (cached files)
//      and sendfile (files of 256 KiB or more) alike, byte-identical to
//      HttpResponse::serialize(), plus full-stack 100-continue / 417 /
//      obs-fold regression coverage.
#include <algorithm>
#include <any>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "http/http_server.hpp"
#include "http/request_parser.hpp"
#include "http/response.hpp"
#include "nserver/request_context.hpp"
#include "nserver/server.hpp"
#include "tests/serialize_recorder.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops::http {
namespace {

// ---- ChunkedDecoder unit tests ----------------------------------------------

struct DecodeRun {
  ChunkedDecoder::Status status = ChunkedDecoder::Status::kNeedMore;
  std::string body;
  size_t consumed = 0;
};

// One-shot decode of the full stream.
DecodeRun decode_all(std::string_view stream, ParseLimits limits = {}) {
  ChunkedDecoder decoder;
  DecodeRun run;
  run.status = decoder.feed(stream, &run.consumed, run.body, limits);
  return run;
}

// Incremental decode: re-present the unconsumed tail plus `step` more
// octets on every feed — the usage pattern the doc comment promises.
DecodeRun decode_stepped(std::string_view stream, size_t step,
                         ParseLimits limits = {}) {
  ChunkedDecoder decoder;
  DecodeRun run;
  std::string pending;
  size_t offered = 0;
  while (offered < stream.size()) {
    const size_t take = std::min(step, stream.size() - offered);
    pending.append(stream.substr(offered, take));
    offered += take;
    size_t consumed = 0;
    run.status = decoder.feed(pending, &consumed, run.body, limits);
    run.consumed += consumed;
    pending.erase(0, consumed);
    if (run.status != ChunkedDecoder::Status::kNeedMore) break;
  }
  return run;
}

const char kChunkedStream[] =
    "10\r\n0123456789abcdef\r\n"
    "5;ext=\"quoted\"\r\nhello\r\n"
    "1\r\n!\r\n"
    "0\r\n"
    "X-Checksum: cafe\r\n"
    "\r\n";
const char kChunkedBody[] = "0123456789abcdefhello!";

TEST(ChunkedDecoderTest, DecodesOneShot) {
  const DecodeRun run = decode_all(kChunkedStream);
  EXPECT_EQ(run.status, ChunkedDecoder::Status::kDone);
  EXPECT_EQ(run.body, kChunkedBody);
  EXPECT_EQ(run.consumed, sizeof(kChunkedStream) - 1);
}

TEST(ChunkedDecoderTest, SplitInvariantAtEveryStepSize) {
  const DecodeRun oracle = decode_all(kChunkedStream);
  ASSERT_EQ(oracle.status, ChunkedDecoder::Status::kDone);
  for (size_t step = 1; step <= sizeof(kChunkedStream) - 1; ++step) {
    const DecodeRun run = decode_stepped(kChunkedStream, step);
    EXPECT_EQ(run.status, oracle.status) << "step=" << step;
    EXPECT_EQ(run.body, oracle.body) << "step=" << step;
    EXPECT_EQ(run.consumed, oracle.consumed) << "step=" << step;
  }
}

TEST(ChunkedDecoderTest, UppercaseHexAndEmptyTrailer) {
  const DecodeRun run = decode_all("A\r\n0123456789\r\n0\r\n\r\n");
  EXPECT_EQ(run.status, ChunkedDecoder::Status::kDone);
  EXPECT_EQ(run.body, "0123456789");
}

TEST(ChunkedDecoderTest, BadHexRejected) {
  EXPECT_EQ(decode_all("xyz\r\n").status, ChunkedDecoder::Status::kBadSyntax);
  EXPECT_EQ(decode_all("\r\n").status, ChunkedDecoder::Status::kBadSyntax);
  // Data not followed by CRLF.
  EXPECT_EQ(decode_all("3\r\nabcXX0\r\n\r\n").status,
            ChunkedDecoder::Status::kBadSyntax);
}

TEST(ChunkedDecoderTest, HexOverflowRejectedAsTooLarge) {
  // 17 hex digits overflow any sane size; must not wrap silently.
  EXPECT_EQ(decode_all("ffffffffffffffff1\r\n").status,
            ChunkedDecoder::Status::kTooLarge);
}

TEST(ChunkedDecoderTest, BodyOverLimitRejected) {
  ParseLimits limits;
  limits.max_body_bytes = 8;
  // A single declared chunk over the cap...
  EXPECT_EQ(decode_all("9\r\n", limits).status,
            ChunkedDecoder::Status::kTooLarge);
  // ...and an accumulation across chunks.
  EXPECT_EQ(decode_all("6\r\nabcdef\r\n6\r\nabcdef\r\n", limits).status,
            ChunkedDecoder::Status::kTooLarge);
}

TEST(ChunkedDecoderTest, ForbiddenTrailerFieldsRejected) {
  for (const char* name :
       {"Content-Length", "Transfer-Encoding", "Host", "Trailer",
        "Connection", "Expect"}) {
    const std::string stream =
        std::string("0\r\n") + name + ": x\r\n\r\n";
    EXPECT_EQ(decode_all(stream).status, ChunkedDecoder::Status::kBadTrailer)
        << name;
  }
  // Obs-folded trailer lines are rejected like obs-folded headers.
  EXPECT_EQ(decode_all("0\r\nX-A: 1\r\n cont\r\n\r\n").status,
            ChunkedDecoder::Status::kBadTrailer);
  // A missing colon is not a trailer field at all.
  EXPECT_EQ(decode_all("0\r\nnot-a-field\r\n\r\n").status,
            ChunkedDecoder::Status::kBadTrailer);
}

TEST(ChunkedDecoderTest, ResetMakesDecoderReusable) {
  ChunkedDecoder decoder;
  std::string body;
  size_t consumed = 0;
  ASSERT_EQ(decoder.feed("3\r\nabc\r\n0\r\n\r\n", &consumed, body, {}),
            ChunkedDecoder::Status::kDone);
  EXPECT_EQ(decoder.decoded_bytes(), 3u);
  decoder.reset();
  body.clear();
  ASSERT_EQ(decoder.feed("2\r\nxy\r\n0\r\n\r\n", &consumed, body, {}),
            ChunkedDecoder::Status::kDone);
  EXPECT_EQ(body, "xy");
  EXPECT_EQ(decoder.decoded_bytes(), 2u);
}

}  // namespace
}  // namespace cops::http

namespace cops::simnet {
namespace {

using std::chrono::milliseconds;

// ---- upload differential over a full nserver echo stack ---------------------

// HTTP echo hooks: decode with the real parser (100-continue and reject
// handling included), reply with the decoded body under Content-Length
// framing.  The reply depends only on the decoded body — so any two request
// framings of the same body must produce byte-identical reply streams.
class EchoHooks : public nserver::AppHooks {
 public:
  nserver::DecodeResult decode(nserver::RequestContext& ctx,
                               ByteBuffer& in) override {
    auto& state = ctx.app_state();
    if (!state) state = std::make_shared<bool>(false);
    auto* continue_sent = static_cast<bool*>(state.get());
    http::HttpRequest request;
    http::ParseEvents events;
    switch (http::parse_request(in, request, {}, events)) {
      case http::ParseOutcome::kIncomplete:
        if (events.needs_continue && !*continue_sent) {
          *continue_sent = true;
          ctx.send("HTTP/1.1 100 Continue\r\n\r\n");
        }
        return nserver::DecodeResult::need_more();
      case http::ParseOutcome::kMalformed:
        return nserver::DecodeResult::error();
      case http::ParseOutcome::kReject:
        return nserver::DecodeResult::reject(
            http::make_error_response(events.reject_status,
                                      /*keep_alive=*/false)
                .serialize());
      case http::ParseOutcome::kComplete:
        *continue_sent = false;
        return nserver::DecodeResult::request_ready(std::move(request));
    }
    return nserver::DecodeResult::error();
  }

  void handle(nserver::RequestContext& ctx, std::any request) override {
    const auto req = std::any_cast<http::HttpRequest>(std::move(request));
    if (!req.keep_alive()) ctx.close_after_reply();
    ctx.reply(std::string("HTTP/1.1 200 OK\r\nContent-Length: ") +
              std::to_string(req.body.size()) + "\r\n\r\n" + req.body);
  }
};

std::string upload_body() {
  std::string body;
  for (int i = 0; i < 6; ++i) {
    body += "payload line " + std::to_string(i) + "\n";
  }
  return body;
}

// The same body, framed two ways.
std::string cl_upload_wire() {
  const std::string body = upload_body();
  return "POST /echo HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string chunked_upload_wire() {
  const std::string body = upload_body();
  std::string wire =
      "POST /echo HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n"
      "Transfer-Encoding: chunked\r\n\r\n";
  // Uneven chunk sizes so CRLF boundaries land mid-line.
  size_t pos = 0;
  size_t take = 7;
  while (pos < body.size()) {
    const size_t n = std::min(take, body.size() - pos);
    char size_line[16];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", n);
    wire += size_line;
    wire += body.substr(pos, n) + "\r\n";
    pos += n;
    take = take * 2 + 1;
  }
  wire += "0\r\nX-Trailer: ok\r\n\r\n";
  return wire;
}

struct EchoRun {
  std::string received;
  std::vector<std::string> trace;
};

// Drips `wire` into a deterministic echo server one octet per virtual tick
// (the worst-case TCP segmentation) under the given fault plan.
EchoRun run_echo_drip(uint64_t seed, const FaultPlan& plan,
                      const std::string& wire) {
  SimEngine engine(seed, plan);
  SCOPED_TRACE("echo drip seed=" + std::to_string(seed));

  auto options = deterministic_options();
  options.listen_port = 8090;
  nserver::Server server(options, std::make_shared<EchoHooks>());
  auto started = server.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();
  if (!started.is_ok()) return {};

  auto* client = engine.new_client();
  engine.at(milliseconds(1), [client] { client->connect(8090); });
  for (size_t i = 0; i < wire.size(); ++i) {
    const std::string octet(1, wire[i]);
    engine.at(milliseconds(2 + static_cast<int>(i)),
              [client, octet] { client->send(octet); });
  }

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "echo drip did not quiesce\n" << engine.trace_text();
  server.stop();
  EXPECT_TRUE(client->peer_closed());
  EXPECT_TRUE(engine.failures().empty());
  return {client->received(), engine.trace()};
}

class ChunkedUploadSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkedUploadSeedTest, DrippedChunkedUploadMatchesContentLength) {
  const auto seed = static_cast<uint64_t>(GetParam());
  for (const auto& plan : {FaultPlan::none(), FaultPlan::chaos()}) {
    const EchoRun cl = run_echo_drip(seed, plan, cl_upload_wire());
    const EchoRun chunked = run_echo_drip(seed, plan, chunked_upload_wire());
    // The echo reply carries the decoded body: both framings of the same
    // body must draw byte-identical reply streams.
    ASSERT_FALSE(cl.received.empty());
    EXPECT_EQ(chunked.received, cl.received);
    EXPECT_NE(cl.received.find(upload_body()), std::string::npos);
  }
}

TEST_P(ChunkedUploadSeedTest, SameSeedSameChunkedTrace) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const EchoRun first = run_echo_drip(seed, FaultPlan::chaos(),
                                      chunked_upload_wire());
  const EchoRun second = run_echo_drip(seed, FaultPlan::chaos(),
                                       chunked_upload_wire());
  ASSERT_FALSE(first.trace.empty());
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (size_t i = 0; i < first.trace.size(); ++i) {
    ASSERT_EQ(first.trace[i], second.trace[i])
        << "first divergence at trace line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedUploadSeedTest, ::testing::Range(1, 5),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- downloads: Content-Length framing over writev and sendfile -------------

std::string small_file() { return "alpha file: the quick brown fox\n"; }
std::string big_file() {
  std::string out;
  out.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    out += static_cast<char>('A' + (i * 7) % 26);
  }
  return out;
}

struct DownloadRun {
  std::string received;
  // Concatenated HttpResponse::serialize() of every reply.
  std::string expected;
};

DownloadRun run_download(uint64_t seed, const std::string& wire) {
  SimEngine engine(seed, FaultPlan::none());
  SCOPED_TRACE("download seed=" + std::to_string(seed));

  test::TempDir dir;
  dir.write_file("a.txt", small_file());
  dir.write_file("b.bin", big_file());
  dir.write_file("c.bin", std::string(nserver::kSendfileMinBytes, 'c'));
  // Pin the docroot mtimes: Last-Modified must not depend on which
  // wall-clock second each run created its files in.
  const auto fixed_mtime = std::chrono::file_clock::from_sys(
      std::chrono::sys_seconds(std::chrono::seconds(784111777)));
  for (const char* name : {"a.txt", "b.bin", "c.bin"}) {
    std::filesystem::last_write_time(dir.path() / name, fixed_mtime);
  }

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
  engine.at(milliseconds(2), [client, wire] { client->send(wire); });

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "download did not quiesce\n" << engine.trace_text();
  server.stop();
  EXPECT_TRUE(client->peer_closed());
  EXPECT_TRUE(engine.failures().empty());
  return {client->received(), hooks->expected()};
}

std::string get_b_wire() {
  return "GET /b.bin HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n";
}

class ChunkedDownloadSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkedDownloadSeedTest, SmallFileStaysContentLengthFramed) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const DownloadRun run = run_download(
      seed, "GET /a.txt HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n");
  const size_t header_end = run.received.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string head = run.received.substr(0, header_end);
  EXPECT_EQ(head.find("Transfer-Encoding"), std::string::npos) << head;
  EXPECT_NE(head.find("Content-Length: 32"), std::string::npos) << head;
  EXPECT_EQ(run.received.substr(header_end + 4), small_file());
}

TEST_P(ChunkedDownloadSeedTest, HeadRequestIsNeverChunked) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const DownloadRun run = run_download(
      seed, "HEAD /b.bin HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n");
  const size_t header_end = run.received.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string head = run.received.substr(0, header_end);
  EXPECT_EQ(head.find("Transfer-Encoding"), std::string::npos) << head;
  EXPECT_NE(head.find("Content-Length: 2000"), std::string::npos) << head;
  EXPECT_EQ(run.received.size(), header_end + 4);  // zero body bytes
}

TEST_P(ChunkedDownloadSeedTest, CopyWritevSendfileByteIdentical) {
  // serialize() flattens headers and body into one string (the copy); the
  // cached b.bin gathers the owned header block and a zero-copy cache slice
  // (writev); c.bin, at the sendfile threshold, follows its header block
  // with an in-kernel file send.  Both must put the copy's bytes on the
  // wire.
  const auto seed = static_cast<uint64_t>(GetParam());
  const DownloadRun writev = run_download(seed, get_b_wire());
  const DownloadRun sendfile = run_download(
      seed, "GET /c.bin HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n");
  ASSERT_FALSE(writev.expected.empty());
  ASSERT_GT(sendfile.expected.size(), nserver::kSendfileMinBytes);
  EXPECT_EQ(writev.received, writev.expected);
  EXPECT_EQ(sendfile.received, sendfile.expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedDownloadSeedTest,
                         ::testing::Range(1, 4), [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- full-stack parser-hardening regressions --------------------------------

struct FileServerRun {
  std::string received;
  bool peer_closed = false;
};

FileServerRun run_file_server(uint64_t seed,
                              const std::vector<std::string>& sends,
                              int gap_ms = 2) {
  SimEngine engine(seed, FaultPlan::none());
  test::TempDir dir;
  dir.write_file("a.txt", small_file());

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8090;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();
  if (!started.is_ok()) return {};

  auto* client = engine.new_client();
  engine.at(milliseconds(1), [client] { client->connect(8090); });
  int when_ms = 2;
  for (const auto& piece : sends) {
    engine.at(milliseconds(when_ms), [client, piece] { client->send(piece); });
    when_ms += gap_ms;
  }

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "run did not quiesce\n" << engine.trace_text();
  server.stop();
  EXPECT_TRUE(engine.failures().empty());
  return {client->received(), client->peer_closed()};
}

size_t count_of(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(ExpectContinueTest, InterimContinueEmittedOnceBeforeFinalReply) {
  // Headers arrive first; the body is withheld until the server commits to
  // reading it.  A conforming server answers the Expect with exactly one
  // interim 100 before the final status.  (Regression: the pre-chunked
  // server never emitted 100 Continue at all.)
  const FileServerRun run = run_file_server(
      7001,
      {"POST /a.txt HTTP/1.1\r\nHost: sim\r\nExpect: 100-continue\r\n"
       "Content-Length: 5\r\nConnection: close\r\n\r\n",
       "hello"},
      /*gap_ms=*/5);
  const size_t interim = run.received.find("HTTP/1.1 100 Continue\r\n\r\n");
  ASSERT_NE(interim, std::string::npos)
      << "no interim 100 Continue:\n" << run.received;
  EXPECT_EQ(interim, 0u) << "100 Continue is not the first reply";
  EXPECT_EQ(count_of(run.received, "HTTP/1.1 100 "), 1u)
      << "100 Continue emitted more than once:\n" << run.received;
  // The final reply follows (POST on a file server: 405).
  EXPECT_NE(run.received.find("HTTP/1.1 405", interim),
            std::string::npos)
      << run.received;
}

TEST(ExpectContinueTest, NoContinueWhenBodyArrivesWithHeaders) {
  const std::string body = "hello";
  const FileServerRun run = run_file_server(
      7002,
      {"POST /a.txt HTTP/1.1\r\nHost: sim\r\nExpect: 100-continue\r\n"
       "Content-Length: 5\r\nConnection: close\r\n\r\n" +
       body});
  EXPECT_EQ(count_of(run.received, "HTTP/1.1 100 "), 0u)
      << "needless interim reply:\n" << run.received;
  EXPECT_EQ(run.received.rfind("HTTP/1.1 405", 0), 0u) << run.received;
}

TEST(ExpectContinueTest, UnsupportedExpectationDraws417AndCloses) {
  const FileServerRun run = run_file_server(
      7003, {"POST /a.txt HTTP/1.1\r\nHost: sim\r\nExpect: 200-maybe\r\n"
             "Content-Length: 5\r\n\r\nhello"});
  EXPECT_EQ(run.received.rfind("HTTP/1.1 417", 0), 0u) << run.received;
  EXPECT_EQ(count_of(run.received, "HTTP/1.1 "), 1u);
  EXPECT_TRUE(run.peer_closed);
}

TEST(ObsFoldTest, FoldedHeaderDraws400AndCloses) {
  const FileServerRun run = run_file_server(
      7004, {"GET /a.txt HTTP/1.1\r\nHost: sim\r\nX-Long: first\r\n"
             " folded continuation\r\n\r\n"
             "GET /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n"});
  EXPECT_EQ(run.received.rfind("HTTP/1.1 400", 0), 0u) << run.received;
  // Nothing after the reject is decoded: the pipelined GET dies with the
  // connection.
  EXPECT_EQ(count_of(run.received, "HTTP/1.1 "), 1u) << run.received;
  EXPECT_TRUE(run.peer_closed);
}

}  // namespace
}  // namespace cops::simnet
