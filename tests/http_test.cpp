// Unit tests for the HTTP protocol library.
#include <gtest/gtest.h>

#include <cstdio>
#include <ctime>

#include "common/byte_buffer.hpp"
#include "http/http_date.hpp"
#include "http/mime.hpp"
#include "http/request_parser.hpp"
#include "http/response.hpp"

namespace cops::http {
namespace {

ParseOutcome parse(const std::string& wire, HttpRequest& out) {
  ByteBuffer buf{std::string_view(wire)};
  return parse_request(buf, out);
}

// ---------- request parsing ----------------------------------------------------

TEST(RequestParser, SimpleGet) {
  HttpRequest req;
  ASSERT_EQ(parse("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_EQ(req.method, Method::kGet);
  EXPECT_EQ(req.path, "/index.html");
  EXPECT_EQ(req.version_major, 1);
  EXPECT_EQ(req.version_minor, 1);
  EXPECT_EQ(req.header_or("host"), "x");
}

TEST(RequestParser, IncompleteNeedsMoreWithoutConsuming) {
  ByteBuffer buf{std::string_view("GET / HTTP/1.1\r\nHost: x\r\n")};
  HttpRequest req;
  const size_t before = buf.readable();
  EXPECT_EQ(parse_request(buf, req), ParseOutcome::kIncomplete);
  EXPECT_EQ(buf.readable(), before);  // untouched
}

TEST(RequestParser, PipelinedRequestsLeaveTail) {
  ByteBuffer buf{std::string_view(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")};
  HttpRequest req;
  ASSERT_EQ(parse_request(buf, req), ParseOutcome::kComplete);
  EXPECT_EQ(req.path, "/a");
  ASSERT_EQ(parse_request(buf, req), ParseOutcome::kComplete);
  EXPECT_EQ(req.path, "/b");
  EXPECT_TRUE(buf.empty());
}

TEST(RequestParser, QueryStringSplit) {
  HttpRequest req;
  ASSERT_EQ(parse("GET /p?a=1&b=2 HTTP/1.1\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_EQ(req.path, "/p");
  EXPECT_EQ(req.query, "a=1&b=2");
  EXPECT_EQ(req.target, "/p?a=1&b=2");
}

TEST(RequestParser, HeaderNamesLowercased) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nCoNtEnT-TyPe: text/x\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_EQ(req.header_or("content-type"), "text/x");
}

TEST(RequestParser, RepeatedHeadersCombined) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nX-A: 1\r\nX-A: 2\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_EQ(req.header_or("x-a"), "1, 2");
}

TEST(RequestParser, DuplicateHostRejected) {
  // RFC 7230 §5.4: more than one Host field is unambiguously malformed.
  HttpRequest req;
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", req),
            ParseOutcome::kMalformed);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nHost: a\r\nHost: a\r\n\r\n", req),
            ParseOutcome::kMalformed);
}

TEST(RequestParser, ConflictingContentLengthRejected) {
  // RFC 7230 §3.3.3: differing repeated Content-Length values are a
  // request-smuggling vector and must be rejected.
  HttpRequest req;
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                  "Content-Length: 6\r\n\r\nhello!",
                  req),
            ParseOutcome::kMalformed);
}

TEST(RequestParser, IdenticalRepeatedContentLengthAccepted) {
  // ...but identical repeats collapse into one value.
  HttpRequest req;
  ASSERT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                  "Content-Length: 5\r\n\r\nhello",
                  req),
            ParseOutcome::kComplete);
  EXPECT_EQ(req.header_or("content-length"), "5");
  EXPECT_EQ(req.body, "hello");
}

TEST(RequestParser, CommaJoinedContentLengthRejected) {
  // A comma-joined list (what naive header combining would produce) must
  // not pass the strict digit parse either.
  HttpRequest req;
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello", req),
            ParseOutcome::kMalformed);
}

TEST(RequestParser, BodyViaContentLength) {
  HttpRequest req;
  ASSERT_EQ(parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", req),
            ParseOutcome::kComplete);
  EXPECT_EQ(req.body, "hello");
}

TEST(RequestParser, BodyIncompleteWaits) {
  HttpRequest req;
  EXPECT_EQ(parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel", req),
            ParseOutcome::kIncomplete);
}

TEST(RequestParser, MalformedMethodRejected) {
  HttpRequest req;
  EXPECT_EQ(parse("FROB / HTTP/1.1\r\n\r\n", req), ParseOutcome::kMalformed);
}

TEST(RequestParser, MalformedVersionRejected) {
  HttpRequest req;
  EXPECT_EQ(parse("GET / HTTQ/1.1\r\n\r\n", req), ParseOutcome::kMalformed);
  EXPECT_EQ(parse("GET / HTTP/1.x\r\n\r\n", req), ParseOutcome::kMalformed);
}

TEST(RequestParser, NegativeContentLengthRejected) {
  HttpRequest req;
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", req),
            ParseOutcome::kMalformed);
}

TEST(RequestParser, OversizedHeadersRejected) {
  std::string wire = "GET / HTTP/1.1\r\n";
  wire += "X-Fill: " + std::string(20000, 'a') + "\r\n\r\n";
  HttpRequest req;
  EXPECT_EQ(parse(wire, req), ParseOutcome::kMalformed);
}

TEST(RequestParser, HeadAndVersions) {
  HttpRequest req;
  ASSERT_EQ(parse("HEAD /h HTTP/1.0\r\n\r\n", req), ParseOutcome::kComplete);
  EXPECT_EQ(req.method, Method::kHead);
  EXPECT_EQ(req.version_minor, 0);
}

// ---------- path sanitization ----------------------------------------------------

TEST(SanitizePath, PassesNormalPaths) {
  EXPECT_EQ(sanitize_path("/a/b/c.html"), "/a/b/c.html");
  EXPECT_EQ(sanitize_path("/"), "/");
}

TEST(SanitizePath, PercentDecoding) {
  EXPECT_EQ(sanitize_path("/a%20b.txt"), "/a b.txt");
  EXPECT_EQ(sanitize_path("/%41"), "/A");
}

TEST(SanitizePath, RejectsTraversal) {
  EXPECT_EQ(sanitize_path("/../etc/passwd"), "");
  EXPECT_EQ(sanitize_path("/a/../../etc"), "");
  EXPECT_EQ(sanitize_path("/%2e%2e/secret"), "");
}

TEST(SanitizePath, CollapsesDotAndDoubleSlash) {
  EXPECT_EQ(sanitize_path("/a/./b//c"), "/a/b/c");
  EXPECT_EQ(sanitize_path("/a/b/../c"), "/a/c");
}

TEST(SanitizePath, RejectsBadEscapes) {
  EXPECT_EQ(sanitize_path("/a%zz"), "");
  EXPECT_EQ(sanitize_path("/a%2"), "");
}

TEST(SanitizePath, PreservesTrailingSlash) {
  EXPECT_EQ(sanitize_path("/dir/"), "/dir/");
}

TEST(SanitizePath, RejectsRelative) { EXPECT_EQ(sanitize_path("a/b"), ""); }

// ---------- keep-alive semantics ---------------------------------------------------

TEST(KeepAlive, Http11DefaultsOn) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\n\r\n", req), ParseOutcome::kComplete);
  EXPECT_TRUE(req.keep_alive());
}

TEST(KeepAlive, Http11CloseHeaderOff) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_FALSE(req.keep_alive());
}

TEST(KeepAlive, Http10DefaultsOff) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.0\r\n\r\n", req), ParseOutcome::kComplete);
  EXPECT_FALSE(req.keep_alive());
}

TEST(KeepAlive, Http10ExplicitOn) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_TRUE(req.keep_alive());
}

// Connection is a comma-separated token *list* (RFC 7230 §6.1): `close`
// anywhere in the list closes, regardless of what else rides along, and
// matching is per-token — substrings must not count.
TEST(KeepAlive, CloseTokenInListCloses) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_FALSE(req.keep_alive());
}

TEST(KeepAlive, CloseTokenCaseInsensitiveWithSpaces) {
  HttpRequest req;
  ASSERT_EQ(
      parse("GET / HTTP/1.1\r\nConnection: keep-alive ,  CLOSE\r\n\r\n", req),
      ParseOutcome::kComplete);
  EXPECT_FALSE(req.keep_alive());
}

TEST(KeepAlive, CloseSubstringDoesNotClose) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nConnection: closedown\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_TRUE(req.keep_alive());
}

TEST(KeepAlive, Http10MixedCaseKeepAliveTokenOn) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.0\r\nConnection: x, Keep-Alive\r\n\r\n", req),
            ParseOutcome::kComplete);
  EXPECT_TRUE(req.keep_alive());
}

// ---------- strict decode rejections (kReject + status) ------------------------

// 4-arg parse_request: deterministic rejection with a mapped status code
// instead of the silent close the 3-arg wrapper gives legacy callers.
std::pair<ParseOutcome, StatusCode> parse_strict(const std::string& wire,
                                                 HttpRequest& out) {
  ByteBuffer buf{std::string_view(wire)};
  StatusCode status = StatusCode::kOk;
  const ParseOutcome outcome =
      parse_request(buf, out, ParseLimits{}, &status);
  return {outcome, status};
}

TEST(StrictContentLength, PlusSignRejectedWith400) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictContentLength, TrailingGarbageRejectedWith400) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello", req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictContentLength, InteriorWhitespaceRejectedWith400) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: 1 2\r\n\r\nxxx", req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictContentLength, Int64OverflowRejectedNotWrapped) {
  // INT64_MAX + 1: a wrapping parser would read a small bogus length and
  // desynchronize the connection.
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: 9223372036854775808\r\n\r\n", req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictContentLength, HugeDigitStringRejectedNotWrapped) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n",
      req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictContentLength, MaxInt64ItselfIsParsedNotRejected) {
  // The boundary value is legal; it trips the body-size limit (413), not
  // the syntax check (400).
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n", req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kPayloadTooLarge);
}

TEST(StrictContentLength, OversizeBodyRejectedWith413) {
  const ParseLimits limits;  // max_body_bytes = 1 MiB
  HttpRequest req;
  ByteBuffer buf{std::string_view(
      "POST / HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n")};
  StatusCode status = StatusCode::kOk;
  EXPECT_EQ(parse_request(buf, req, limits, &status), ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kPayloadTooLarge);
}

TEST(StrictTransferEncoding, ChunkedBodyDecodes) {
  // The PR-5 stopgap answered every Transfer-Encoding with 501; chunked is
  // now a real framing layer and decodes like any other body.
  HttpRequest req;
  ByteBuffer buf{std::string_view(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n")};
  EXPECT_EQ(parse_request(buf, req), ParseOutcome::kComplete);
  EXPECT_EQ(req.body, "hello world");
  EXPECT_EQ(buf.readable(), 0u);  // the chunk framing is fully consumed
}

TEST(StrictTransferEncoding, ChunkedLeavesPipelinedRequestInBuffer) {
  HttpRequest req;
  ByteBuffer buf{std::string_view(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n"
      "GET /next HTTP/1.1\r\n\r\n")};
  ASSERT_EQ(parse_request(buf, req), ParseOutcome::kComplete);
  EXPECT_EQ(req.body, "abc");
  ASSERT_EQ(parse_request(buf, req), ParseOutcome::kComplete);
  EXPECT_EQ(req.target, "/next");
}

TEST(StrictTransferEncoding, IncompleteChunkedBodyConsumesNothing) {
  HttpRequest req;
  const std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
  ByteBuffer buf{std::string_view(wire)};
  EXPECT_EQ(parse_request(buf, req), ParseOutcome::kIncomplete);
  EXPECT_EQ(buf.readable(), wire.size());
}

TEST(StrictTransferEncoding, ChunkExtensionsIgnoredTrailersDiscarded) {
  HttpRequest req;
  ByteBuffer buf{std::string_view(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5;name=value\r\nhello\r\n0\r\n"
      "X-Checksum: abc123\r\n\r\n")};
  ASSERT_EQ(parse_request(buf, req), ParseOutcome::kComplete);
  EXPECT_EQ(req.body, "hello");
  // Trailer fields are validated and discarded, never merged into headers.
  EXPECT_EQ(req.headers.find_index("x-checksum"), HeaderMap::npos);
}

TEST(StrictTransferEncoding, UnsupportedCodingStillRejectedWith501) {
  // gzip (or any stack that is not exactly "chunked") keeps the
  // deterministic 501 from the pre-chunked parser.
  HttpRequest req;
  for (const char* te : {"gzip", "gzip, chunked", "chunked, gzip"}) {
    auto [outcome, status] = parse_strict(
        std::string("POST / HTTP/1.1\r\nTransfer-Encoding: ") + te +
            "\r\n\r\n",
        req);
    EXPECT_EQ(outcome, ParseOutcome::kReject) << te;
    EXPECT_EQ(status, StatusCode::kNotImplemented) << te;
  }
}

TEST(StrictTransferEncoding, ClPlusTeRejectedWith400) {
  // RFC 7230 §3.3.3: both framing headers present is the canonical
  // request-smuggling vector — never pick one, always 400 + close.
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nContent-Length: 5\r\n"
      "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
      req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictTransferEncoding, ChunkedOnHttp10RejectedWith400) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictTransferEncoding, HexOverflowChunkSizeRejectedWith413) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffffffffffff1\r\n",
      req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kPayloadTooLarge);
}

TEST(StrictTransferEncoding, BadChunkSyntaxRejectedWith400) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "zz\r\nhello\r\n0\r\n\r\n",
      req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictTransferEncoding, ForbiddenTrailerFieldRejectedWith400) {
  // A trailer may not rewrite framing/routing decisions already taken from
  // the header block.
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\nContent-Length: 5\r\n\r\n",
      req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kBadRequest);
}

TEST(StrictRejects, ObsFoldContinuationRejectedWith400) {
  // RFC 7230 §3.2.4 obs-fold: a leading-whitespace continuation line must
  // not be misread as a separate header — deterministic 400 instead.
  HttpRequest req;
  for (const char* fold : {" folded-value\r\n", "\tfolded-value\r\n"}) {
    auto [outcome, status] = parse_strict(
        std::string("GET / HTTP/1.1\r\nX-Long: first\r\n") + fold + "\r\n",
        req);
    EXPECT_EQ(outcome, ParseOutcome::kReject) << fold;
    EXPECT_EQ(status, StatusCode::kBadRequest) << fold;
  }
}

TEST(StrictExpect, UnsupportedExpectationRejectedWith417) {
  HttpRequest req;
  auto [outcome, status] = parse_strict(
      "POST / HTTP/1.1\r\nExpect: 200-maybe\r\nContent-Length: 1\r\n\r\nx",
      req);
  EXPECT_EQ(outcome, ParseOutcome::kReject);
  EXPECT_EQ(status, StatusCode::kExpectationFailed);
}

TEST(StrictExpect, ContinueSignalledWhileBodyInFlight) {
  HttpRequest req;
  ParseEvents events;
  ByteBuffer buf{std::string_view(
      "POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n")};
  EXPECT_EQ(parse_request(buf, req, ParseLimits{}, events),
            ParseOutcome::kIncomplete);
  EXPECT_TRUE(events.needs_continue);
  // Once the body is fully buffered no interim reply is owed.
  ByteBuffer full{std::string_view(
      "POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n"
      "hello")};
  EXPECT_EQ(parse_request(full, req, ParseLimits{}, events),
            ParseOutcome::kComplete);
  EXPECT_FALSE(events.needs_continue);
}

TEST(StrictExpect, ContinueSignalledForChunkedBodyInFlight) {
  HttpRequest req;
  ParseEvents events;
  ByteBuffer buf{std::string_view(
      "POST / HTTP/1.1\r\nExpect: 100-continue\r\n"
      "Transfer-Encoding: chunked\r\n\r\n")};
  EXPECT_EQ(parse_request(buf, req, ParseLimits{}, events),
            ParseOutcome::kIncomplete);
  EXPECT_TRUE(events.needs_continue);
}

TEST(StrictRejects, LegacyWrapperMapsRejectToMalformed) {
  // The 3-arg overload keeps the old silent-close contract for the baseline
  // servers: kReject degrades to kMalformed.
  HttpRequest req;
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", req),
            ParseOutcome::kMalformed);
  EXPECT_EQ(
      parse("POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", req),
      ParseOutcome::kMalformed);
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                  "Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
                  req),
            ParseOutcome::kMalformed);
}

// ---------- percent-decode hardening -------------------------------------------

TEST(SanitizePath, RejectsEncodedNul) {
  // %00 would truncate a C filesystem path at the NUL.
  EXPECT_EQ(sanitize_path("/a%00.txt"), "");
  EXPECT_EQ(sanitize_path("/%00"), "");
  EXPECT_EQ(sanitize_path("/a.txt%00.jpg"), "");
}

TEST(SanitizePath, TraversalCheckRunsOnDecodedBytes) {
  // Every encoding of ".." must hit the same post-decode check.
  EXPECT_EQ(sanitize_path("/%2e%2e/secret"), "");
  EXPECT_EQ(sanitize_path("/%2E%2E/secret"), "");
  EXPECT_EQ(sanitize_path("/a/%2e%2e/%2e%2e/etc/passwd"), "");
  EXPECT_EQ(sanitize_path("/.%2e/secret"), "");
  EXPECT_EQ(sanitize_path("/%2e./secret"), "");
}

TEST(SanitizePath, DotDotWithinRootResolves) {
  EXPECT_EQ(sanitize_path("/a/%2e%2e/b"), "/b");
  EXPECT_EQ(sanitize_path("/a/b/%2e%2e/c"), "/a/c");
}

TEST(SanitizePath, ReusedOutputBufferIsFullyReplaced) {
  std::string out = "stale previous contents";
  ASSERT_TRUE(sanitize_path_into("/x.txt", out));
  EXPECT_EQ(out, "/x.txt");
  ASSERT_FALSE(sanitize_path_into("/%00", out));
}

// ---------- response serialization ---------------------------------------------------

TEST(Response, SerializeBasics) {
  HttpResponse resp;
  resp.status = StatusCode::kOk;
  resp.body = "hello";
  resp.set_header("Content-Type", "text/plain");
  const auto wire = resp.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Server: COPS-HTTP"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nhello"), std::string::npos);
}

TEST(Response, HeadSuppressesBodyKeepsLength) {
  HttpResponse resp;
  resp.body = "data";
  resp.head_only = true;
  const auto wire = resp.serialize();
  EXPECT_NE(wire.find("Content-Length: 4"), std::string::npos);
  EXPECT_EQ(wire.find("\r\n\r\ndata"), std::string::npos);
}

TEST(Response, FileBodyUsed) {
  auto file = std::make_shared<nserver::FileData>();
  file->bytes = "file-bytes";
  HttpResponse resp;
  resp.file = file;
  const auto wire = resp.serialize();
  EXPECT_NE(wire.find("file-bytes"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 10"), std::string::npos);
}

TEST(Response, ErrorPageContainsCode) {
  const auto resp = make_error_response(StatusCode::kNotFound, true);
  EXPECT_EQ(resp.status, StatusCode::kNotFound);
  EXPECT_NE(resp.body.find("404"), std::string::npos);
  const auto wire = resp.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

// ---------- mime / date ------------------------------------------------------------

TEST(Mime, KnownExtensions) {
  EXPECT_EQ(mime_type_for("/x/index.html"), "text/html");
  EXPECT_EQ(mime_type_for("a.PNG"), "image/png");
  EXPECT_EQ(mime_type_for("style.css"), "text/css");
}

TEST(Mime, UnknownFallsBack) {
  EXPECT_EQ(mime_type_for("file.weird"), "application/octet-stream");
  EXPECT_EQ(mime_type_for("no_extension"), "application/octet-stream");
}

TEST(HttpDate, FormatsRfc7231) {
  // 2003-08-04 12:30:45 UTC
  EXPECT_EQ(format_http_date(1060000245), "Mon, 04 Aug 2003 12:30:45 GMT");
}

// The reference the formatter replaced: the C library's broken-down time.
std::string gmtime_http_date(int64_t unix_seconds) {
  static constexpr const char* kDayNames[7] = {"Sun", "Mon", "Tue", "Wed",
                                               "Thu", "Fri", "Sat"};
  static constexpr const char* kMonthNames[12] = {
      "Jan", "Feb", "Mar", "Apr", "May", "Jun",
      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  const time_t t = static_cast<time_t>(unix_seconds);
  tm utc{};
  gmtime_r(&t, &utc);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s, %02d %s %04d %02d:%02d:%02d GMT",
                kDayNames[utc.tm_wday], utc.tm_mday, kMonthNames[utc.tm_mon],
                utc.tm_year + 1900, utc.tm_hour, utc.tm_min, utc.tm_sec);
  return buf;
}

TEST(HttpDate, FormatMatchesGmtimeOverEverySecondOfADay) {
  const int64_t day = 1'709'164'800;  // 2024-02-29, a leap day
  for (int64_t t = day; t < day + 86400; ++t) {
    ASSERT_EQ(format_http_date(t), gmtime_http_date(t)) << t;
  }
}

TEST(HttpDate, FormatMatchesGmtimeAtMonthAndLeapYearEdges) {
  // One second either side of every month start from 1970 to 2404, which
  // crosses the 100- and 400-year leap rules (2000 leaps, 2100 does not).
  int64_t month_start = 0;
  for (int year = 1970; year <= 2404; ++year) {
    const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    const int lengths[12] = {31, leap ? 29 : 28, 31, 30, 31, 30,
                             31, 31, 30, 31, 30, 31};
    for (const int length : lengths) {
      for (const int64_t t : {month_start - 1, month_start, month_start + 1}) {
        if (t < 0) continue;
        ASSERT_EQ(format_http_date(t), gmtime_http_date(t)) << t;
      }
      month_start += int64_t{length} * 86400;
    }
  }
}

TEST(HttpDate, FormatMatchesGmtimeFrom1970Through9999) {
  const int64_t last = 253'402'300'799;  // 9999-12-31 23:59:59
  // A stride coprime to the day, so the samples sweep every time of day.
  for (int64_t t = 0; t < last; t += 3'196'441) {
    ASSERT_EQ(format_http_date(t), gmtime_http_date(t)) << t;
  }
  EXPECT_EQ(format_http_date(last), gmtime_http_date(last));
  EXPECT_EQ(format_http_date(last), "Fri, 31 Dec 9999 23:59:59 GMT");
}

TEST(HttpDate, NowIsParsableShape) {
  const auto date = now_http_date();
  EXPECT_EQ(date.size(), 29u);
  EXPECT_NE(date.find("GMT"), std::string::npos);
}

// RFC 7231 §7.1.1.1: recipients MUST accept all three date formats.  The
// reference instant is the RFC's own example: 784111777 = Sun, 06 Nov 1994
// 08:49:37 GMT.
TEST(HttpDate, ParsesImfFixdate) {
  EXPECT_EQ(parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT"), 784111777);
}

TEST(HttpDate, ParsesRfc850) {
  EXPECT_EQ(parse_http_date("Sunday, 06-Nov-94 08:49:37 GMT"), 784111777);
  // Two-digit year pivot: 00-69 land in 20xx.
  EXPECT_EQ(parse_http_date("Saturday, 06-Nov-04 08:49:37 GMT"),
            parse_http_date("Sat, 06 Nov 2004 08:49:37 GMT"));
}

TEST(HttpDate, ParsesAsctime) {
  EXPECT_EQ(parse_http_date("Sun Nov  6 08:49:37 1994"), 784111777);
  // Two-digit day of month.
  EXPECT_EQ(parse_http_date("Wed Nov 16 08:49:37 1994"),
            parse_http_date("Wed, 16 Nov 1994 08:49:37 GMT"));
}

TEST(HttpDate, RoundTripsFormat) {
  EXPECT_EQ(parse_http_date(format_http_date(1060000245)), 1060000245);
  EXPECT_EQ(parse_http_date(format_http_date(784111777)), 784111777);
}

TEST(HttpDate, RejectsMalformedDates) {
  EXPECT_EQ(parse_http_date(""), -1);
  EXPECT_EQ(parse_http_date("not a date"), -1);
  EXPECT_EQ(parse_http_date("Xxx, 06 Nov 1994 08:49:37 GMT"), -1);
  EXPECT_EQ(parse_http_date("Sun, 06 Xxx 1994 08:49:37 GMT"), -1);
  // timegm would silently normalize out-of-range fields; we must not.
  EXPECT_EQ(parse_http_date("Sun, 06 Nov 1994 25:49:37 GMT"), -1);
  EXPECT_EQ(parse_http_date("Sun, 06 Nov 1994 08:61:37 GMT"), -1);
  EXPECT_EQ(parse_http_date("Sun, 00 Nov 1994 08:49:37 GMT"), -1);
  // Trailing junk.
  EXPECT_EQ(parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT extra"), -1);
}

}  // namespace
}  // namespace cops::http
