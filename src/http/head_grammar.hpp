// The HTTP/1.1 message-head grammar, shared by every parser in cops_http.
//
// One implementation of each decision the server's request parser
// (parse_request), the proxy's head parsers (parse_request_head,
// parse_response_head) and the chunked trailer check make about a head:
//
//   locate_head       where the head ends, and its size bound: the start
//                     line, the field lines and the empty line together
//                     may be at most `max_head_bytes` long;
//   start lines       `method SP request-target SP HTTP/1.x` and
//                     `HTTP/1.x SP 3DIGIT [SP reason]`, versions 1.0 and
//                     1.1 only, no control bytes;
//   field lines       `token ":" OWS value OWS` (RFC 7230 §3.2): no
//                     obs-fold, no whitespace before the colon, no control
//                     byte but HTAB in the value;
//   field values      Content-Length digits, the Transfer-Encoding list,
//                     Connection tokens;
//   framing           Content-Length / Transfer-Encoding / Host / Expect /
//                     Connection → body delimiter and persistence, or the
//                     status a request is rejected with.
//
// Everything here works on string_views into the caller's buffer and never
// allocates, so the server's Decode step stays allocation-free.  What the
// callers keep is what differs between them: the server's known-method
// enum, path sanitisation and body limit, and where each stores the fields
// (HeaderMap, MessageHead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "http/status_code.hpp"

namespace cops::http {

// How the message body is delimited (RFC 7230 §3.3.3).
enum class BodyDelim {
  kNone,           // no body (HEAD reply, 1xx/204/304, bodiless request)
  kContentLength,  // exactly content_length bytes follow
  kChunked,        // chunked transfer coding follows
  kToClose,        // response only: body runs to connection close
};

// ---- the head ---------------------------------------------------------------

enum class HeadParseStatus {
  kNeedMore,   // the head is incomplete — feed more bytes
  kOk,         // the head is complete (the proxy's parsers consumed it)
  kMalformed,  // too large, or framing that cannot be trusted: reject
};

// The head at the front of `bytes`, split into its parts.
struct HeadParts {
  size_t size = 0;               // bytes up to and including the CRLFCRLF
  std::string_view start_line;   // without its CRLF
  std::string_view fields;       // the field lines, CRLF-separated, no
                                 // empty line (empty when there are none)
};

// Finds the head at the front of `bytes`.  Only the first `max_head_bytes`
// are searched, so a body that follows the head is never scanned.
// kNeedMore: the head may still fit once more bytes arrive; kMalformed: it
// cannot.
HeadParseStatus locate_head(std::string_view bytes, size_t max_head_bytes,
                            HeadParts* out);

// ---- start lines ------------------------------------------------------------

struct RequestLine {
  std::string_view method;  // a token; not checked against known methods
  std::string_view target;  // no SP, no control byte but HTAB
  bool http11 = true;       // HTTP/1.1 (vs HTTP/1.0)
};
bool parse_request_line(std::string_view line, RequestLine* out);

struct StatusLine {
  int status = 0;  // 100..999
  bool http11 = true;
};
bool parse_status_line(std::string_view line, StatusLine* out);

// ---- field lines ------------------------------------------------------------

struct FieldLine {
  std::string_view name;   // as sent (original casing)
  std::string_view value;  // OWS-trimmed
};

// One field line (no CRLF).  False for an obs-fold continuation, a missing
// colon, a name that is not a token (this includes "Name : v"), or a value
// with a control byte other than HTAB (a bare CR or LF included).
bool parse_field_line(std::string_view line, FieldLine* out);

// ---- field values -----------------------------------------------------------

// Content-Length: 1*DIGIT, no sign, no whitespace, at most INT64_MAX.
bool parse_content_length(std::string_view digits, uint64_t* out);

// True when `token` is an element of the comma-separated list `list`
// (case-insensitive, OWS around elements, empty elements ignored).
bool list_has_token(std::string_view list, std::string_view token);

// The Connection tokens persistence depends on.
struct ConnectionTokens {
  bool close = false;
  bool keep_alive = false;

  void note(std::string_view list);
};

// HTTP/1.1 persists unless "close" is listed; HTTP/1.0 only with
// "keep-alive".
[[nodiscard]] constexpr bool persistent(bool http11, ConnectionTokens t) {
  return !t.close && (http11 || t.keep_alive);
}

// ---- framing ----------------------------------------------------------------

// What the framing decision needs from a head's field lines, gathered as
// they are read.  Repeated fields count as one comma-joined list
// (RFC 7230 §3.2.2), except that a repeated Content-Length must repeat
// the same value.
class FramingFields {
 public:
  void note(const FieldLine& field);

 private:
  friend struct Framing;

  // The coding list is exactly "chunked", the only coding decoded.
  [[nodiscard]] bool lone_chunked() const {
    return codings_ == 1 && only_chunked_;
  }

  uint64_t content_length_ = 0;
  std::string_view content_length_text_;
  bool has_content_length_ = false;
  bool bad_content_length_ = false;   // not digits, or repeats differ
  bool has_transfer_encoding_ = false;
  uint32_t codings_ = 0;              // non-empty Transfer-Encoding elements
  bool only_chunked_ = true;          // ...all of them "chunked"
  uint32_t hosts_ = 0;
  uint32_t expects_ = 0;
  std::string_view expect_;
  ConnectionTokens connection_;
};

// The framing decision.  `status` is kOk when the head is acceptable, and
// otherwise the status it is rejected with; the other fields are then
// unspecified.
struct Framing {
  StatusCode status = StatusCode::kOk;
  BodyDelim delim = BodyDelim::kNone;
  uint64_t content_length = 0;
  bool keep_alive = true;
  bool expect_continue = false;  // request: owes a 100 Continue

  // Requests, in this order: a second Host → 400 (§5.4); a bad or
  // conflicting Content-Length → 400; Transfer-Encoding with
  // Content-Length (§3.3.3) or on HTTP/1.0 → 400; a coding list other than
  // a lone "chunked" → 501; an Expect other than one "100-continue" → 417.
  static Framing request(const FramingFields& fields, bool http11);
  // Responses reject (502) on the same framing faults; the body is absent
  // for 1xx/204/304 and replies to HEAD, and otherwise runs to close when
  // neither framing field is present.
  static Framing response(const FramingFields& fields, bool http11,
                          int status, bool head_request);
};

// Reads every field line of `block` (HeadParts::fields): each must parse,
// is noted in `framing`, and is then passed to `on_field`.  False at the
// first line that does not parse.
template <typename OnField>
bool read_fields(std::string_view block, FramingFields& framing,
                 OnField&& on_field) {
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    FieldLine field;
    if (!parse_field_line(block.substr(pos, eol - pos), &field)) return false;
    framing.note(field);
    on_field(field);
    pos = eol + 2;
  }
  return true;
}

}  // namespace cops::http
