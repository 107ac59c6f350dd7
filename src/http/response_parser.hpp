// Streaming HTTP/1.x message-head parsing for the L7 proxy (src/proxy).
//
// The request parser in request_parser.hpp consumes a *complete* request —
// head and body — per call, which is exactly wrong for a streaming relay
// that must forward body bytes as they arrive.  This header provides the
// proxy's decode layer instead:
//
//   * parse_response_head() — one upstream response head, treated as
//     UNTRUSTED input (a compromised or buggy backend is a request-smuggling
//     vector).  Every rejection is kMalformed, never guessed at; the proxy
//     maps it to a 502 and poisons the upstream connection.
//   * parse_request_head() — the client side, framing detection only (the
//     body streams through afterwards).  A rejection carries the status the
//     server's parse_request would answer the same head with.
//   * ChunkPassthrough — validates chunked framing over the
//     ChunkedDecoder while the raw bytes are forwarded verbatim, so the
//     relayed stream is byte-identical to the origin's and still can't
//     smuggle malformed framing (or a trailer outside the field-line
//     grammar) through the proxy.
//
// The grammar itself lives in head_grammar.hpp, shared with parse_request
// and the chunked trailer check, so the proxy and the server it fronts
// decide every head alike:
//
//   * whitespace before a field's colon ("Content-Length : 3"), a control
//     byte in a value, obs-fold, a second Host, differing repeated
//     Content-Length values: 400 (an identical repeat collapses);
//   * Transfer-Encoding is a list: "chunked," is chunked, "gzip, chunked"
//     is 501; with Content-Length, or on HTTP/1.0, it is 400;
//   * start lines: a request-target holding SP, or a version other than
//     HTTP/1.0 or HTTP/1.1, is rejected (the server closes silently);
//   * the head, its final CRLFCRLF included, fits in max_header_bytes.
//
// The proxy forwards what only the server refuses: unknown methods, paths
// that fail sanitisation, bodies over the server's limit.
//
// Everything here is in cops_http (not src/proxy) so the fuzz harness
// (tests/fuzz_parser_test.cpp) can hammer it with the corpus without
// linking the proxy's reactor machinery.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_buffer.hpp"
#include "http/head_grammar.hpp"
#include "http/request_parser.hpp"

namespace cops::http {

// One parsed message head.  Header names keep their original casing in
// `name` for verbatim forwarding; `lname` is the lowercased lookup key.
struct HeaderField {
  std::string name;
  std::string lname;
  std::string value;
};

struct MessageHead {
  std::vector<HeaderField> headers;
  bool http11 = true;  // HTTP/1.1 (vs 1.0)
  BodyDelim delim = BodyDelim::kNone;
  uint64_t content_length = 0;
  bool keep_alive = true;  // version default adjusted by Connection tokens

  // Response-only:
  int status = 0;
  std::string status_line;  // verbatim, no CRLF — forwarded byte-identically

  // Request-only:
  std::string method;
  std::string target;
  bool expect_continue = false;

  void reset();
};

// Parses one response head from the front of `in`, consuming it on kOk.
// `head_request` marks a reply to a HEAD request (body suppressed
// regardless of framing headers).  kNeedMore consumes nothing.
HeadParseStatus parse_response_head(ByteBuffer& in, MessageHead& out,
                                    const ParseLimits& limits,
                                    bool head_request);

// Parses one request head from the front of `in`, consuming it on kOk.
// kMalformed sets `reject_status` to the answer owed (400, 417 or 501).
HeadParseStatus parse_request_head(ByteBuffer& in, MessageHead& out,
                                   const ParseLimits& limits,
                                   StatusCode* reject_status);

// True for header fields that are hop-by-hop (RFC 7230 §6.1) and must not
// be forwarded by a proxy: Connection and everything it names, Keep-Alive,
// TE, Trailer, Transfer-Encoding*, Upgrade, Proxy-Connection,
// Proxy-Authenticate, Proxy-Authorization.  (*Transfer-Encoding is re-added
// by the relay itself when it passes chunked framing through.)
[[nodiscard]] bool is_hop_by_hop(std::string_view lname,
                                 const MessageHead& head);

// Chunked-framing validator for pass-through relays.  feed() reports via
// `*consumed` how many raw input bytes belong to the current chunked
// message and are safe to forward verbatim; decoded bytes are discarded
// (constant memory — this never buffers a body).  Only framing violations
// fire: the decoder's body-size limit is lifted to its maximum, so
// kTooLarge means a hex chunk-size overflow, not a policy limit.
class ChunkPassthrough {
 public:
  using Status = ChunkedDecoder::Status;

  Status feed(std::string_view input, size_t* consumed);
  void reset();

  [[nodiscard]] uint64_t decoded_bytes() const {
    return decoder_.decoded_bytes();
  }

 private:
  ChunkedDecoder decoder_;
  std::string scratch_;
};

}  // namespace cops::http
