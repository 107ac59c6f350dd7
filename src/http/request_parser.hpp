// Incremental HTTP/1.x request parser.
//
// Feed it a ByteBuffer; it consumes exactly one complete request (headers +
// body framed by Content-Length or chunked transfer coding) per call,
// leaving pipelined follow-up requests in the buffer — the contract the
// N-Server Decode step needs.  The head grammar and the framing decision
// are http/head_grammar.hpp's, shared with the proxy's head parsers; this
// parser adds the server's own decisions (known methods, path
// sanitisation, the body limit).
//
// The parser writes into a caller-owned HttpRequest whose fields recycle
// their capacity (HttpRequest::reset()), so a connection that reuses one
// scratch request across keep-alive requests parses with zero steady-state
// heap allocations.  Chunked bodies decode into the same recycled body
// string, so the zero-allocation property covers them too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/byte_buffer.hpp"
#include "http/request.hpp"
#include "http/status_code.hpp"

namespace cops::http {

enum class ParseOutcome {
  kIncomplete,  // need more bytes
  kComplete,    // one request parsed and consumed
  // Garbage: close silently, no reply owed.  An oversized head, a start
  // line outside the grammar, an unknown method or an unsanitisable path.
  kMalformed,
  // Well-formed enough to answer deterministically, but unacceptable: a
  // field line outside the grammar (obs-fold, "Name : v", a control byte
  // in a value), a second Host, a bad or conflicting Content-Length, or
  // Content-Length with Transfer-Encoding (the RFC 7230 §3.3.3 smuggling
  // vector) (400); body over the limit (413); a Transfer-Encoding other
  // than a lone "chunked" (501); malformed chunk framing or trailer
  // (400/413); an unsupported Expect (417).  The caller must send the
  // status from `reject_status` and close; the head has been consumed, the
  // (possibly partial) body deliberately has not.
  kReject,
};

struct ParseLimits {
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 1 * 1024 * 1024;
};

// Out-of-band facts about the parse beyond its outcome.
struct ParseEvents {
  // Valid when the outcome is kReject: the deterministic answer owed.
  StatusCode reject_status = StatusCode::kBadRequest;
  // Valid when the outcome is kIncomplete: the header block is complete,
  // carries "Expect: 100-continue" (HTTP/1.1), and the body has not fully
  // arrived — the server should emit an interim "100 Continue" (once) so a
  // conforming client stops waiting and sends the body.
  bool needs_continue = false;
};

// Incremental RFC 7230 §4.1 chunked transfer-coding decoder.
//
// A small state machine over { chunk-size line (hex, optional ";ext"),
// chunk data, CRLF, trailer section }.  feed() processes as much of `input`
// as possible, appending decoded body bytes to `body` (capacity recycles —
// no allocations once warmed) and reporting via `*consumed` how many input
// bytes were fully processed.  On kNeedMore the unprocessed tail
// (input.substr(*consumed)) must be re-presented, with more bytes appended,
// on the next feed() — partially-seen size/trailer lines are never
// half-consumed, so re-feeding is exact.  Decoding is split-invariant: any
// segmentation of the same byte stream yields the same status, consumed
// total, and decoded body (the fuzz harness enforces this).
class ChunkedDecoder {
 public:
  enum class Status {
    kNeedMore,    // ran out of input mid-stream
    kDone,        // last chunk + trailer fully decoded and consumed
    kBadSyntax,   // framing violation → 400
    kTooLarge,    // chunk/body over max_body_bytes (or hex overflow) → 413
    kBadTrailer,  // oversized trailer, a trailer line outside the field-line
                  // grammar, or a field that may not appear there
                  // (Content-Length, Transfer-Encoding, Host, Trailer,
                  // Connection, Expect) → 400
  };

  Status feed(std::string_view input, size_t* consumed, std::string& body,
              const ParseLimits& limits);
  void reset();

  // Total decoded body bytes so far (across feeds).
  [[nodiscard]] uint64_t decoded_bytes() const { return decoded_; }

 private:
  enum class State { kSizeLine, kData, kDataCr, kDataLf, kTrailer, kDone };

  State state_ = State::kSizeLine;
  uint64_t chunk_remaining_ = 0;
  uint64_t decoded_ = 0;
  size_t trailer_bytes_ = 0;
};

// Parses one request from `in` into `out` (resetting both `out` and
// `events` first).  On kComplete the request's bytes — including all chunk
// framing — are consumed; on kIncomplete nothing is consumed (chunked
// bodies re-decode from the top once more bytes arrive, so the buffer is
// never left half-eaten); on kReject the header block is consumed and
// events.reject_status holds the response status; on kMalformed the buffer
// state is unspecified (the caller closes).
ParseOutcome parse_request(cops::ByteBuffer& in, HttpRequest& out,
                           const ParseLimits& limits, ParseEvents& events);

// Compatibility wrapper: reject status only, no continue signal.
ParseOutcome parse_request(cops::ByteBuffer& in, HttpRequest& out,
                           const ParseLimits& limits,
                           StatusCode* reject_status);

// Compatibility wrapper: rejects fold into kMalformed (silent close), the
// pre-kReject behaviour that the baseline server and older callers expect.
ParseOutcome parse_request(cops::ByteBuffer& in, HttpRequest& out,
                           const ParseLimits& limits = {});

// Percent-decodes and normalizes a request path into `out`, reusing its
// capacity (no allocations once warmed).  Returns false — and callers must
// treat the path as Forbidden — for traversal attempts ("..", including
// percent-encoded ones, re-checked *after* decoding), embedded NULs
// ("%00"), malformed escapes, and relative paths.
bool sanitize_path_into(std::string_view raw_path, std::string& out);

// Allocating convenience wrapper; empty string = rejected.
[[nodiscard]] std::string sanitize_path(std::string_view raw_path);

}  // namespace cops::http
