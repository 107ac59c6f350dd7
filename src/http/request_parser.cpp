#include "http/request_parser.hpp"

#include <algorithm>
#include <cstdint>

#include "common/string_util.hpp"
#include "http/head_grammar.hpp"

namespace cops::http {
namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Trailer fields that would rewrite framing, routing, or control decisions
// already taken from the header block (RFC 7230 §4.1.2's forbidden set,
// restricted to the smuggling-relevant members we parse).
bool forbidden_in_trailer(std::string_view name) {
  return cops::iequals(name, "content-length") ||
         cops::iequals(name, "transfer-encoding") ||
         cops::iequals(name, "host") || cops::iequals(name, "trailer") ||
         cops::iequals(name, "connection") || cops::iequals(name, "expect");
}

// Bound on one chunk-size line (hex digits + extensions + CRLF): generous
// for real traffic, small enough that an attacker cannot buffer-bloat by
// streaming an endless extension.
constexpr size_t kMaxChunkSizeLine = 1024;

}  // namespace

void ChunkedDecoder::reset() {
  state_ = State::kSizeLine;
  chunk_remaining_ = 0;
  decoded_ = 0;
  trailer_bytes_ = 0;
}

ChunkedDecoder::Status ChunkedDecoder::feed(std::string_view input,
                                            size_t* consumed,
                                            std::string& body,
                                            const ParseLimits& limits) {
  size_t pos = 0;
  *consumed = 0;
  while (true) {
    switch (state_) {
      case State::kSizeLine: {
        const size_t eol = input.find("\r\n", pos);
        if (eol == std::string_view::npos) {
          if (input.size() - pos > kMaxChunkSizeLine) return Status::kBadSyntax;
          *consumed = pos;
          return Status::kNeedMore;
        }
        if (eol - pos > kMaxChunkSizeLine) return Status::kBadSyntax;
        const std::string_view line = input.substr(pos, eol - pos);
        // chunk-size: 1*HEXDIG, then optional BWS and ";extensions".
        size_t i = 0;
        uint64_t size = 0;
        for (; i < line.size(); ++i) {
          const int digit = hex_digit(line[i]);
          if (digit < 0) break;
          // Overflow guard before the limit check: size*16 must stay in
          // range even when max_body_bytes is set absurdly high.
          if (size > (static_cast<uint64_t>(INT64_MAX) >> 4)) {
            return Status::kTooLarge;
          }
          size = size * 16 + static_cast<uint64_t>(digit);
          if (size > limits.max_body_bytes) return Status::kTooLarge;
        }
        if (i == 0) return Status::kBadSyntax;  // no hex digits at all
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        if (i < line.size() && line[i] != ';') return Status::kBadSyntax;
        // Extensions (";name=value") are tolerated and ignored, but may not
        // smuggle control bytes.
        if (line.find('\0', i) != std::string_view::npos) {
          return Status::kBadSyntax;
        }
        pos = eol + 2;
        if (size == 0) {
          state_ = State::kTrailer;
        } else {
          if (decoded_ + size > limits.max_body_bytes) return Status::kTooLarge;
          chunk_remaining_ = size;
          state_ = State::kData;
        }
        break;
      }
      case State::kData: {
        const size_t take = static_cast<size_t>(
            std::min<uint64_t>(chunk_remaining_, input.size() - pos));
        body.append(input.data() + pos, take);
        decoded_ += take;
        pos += take;
        chunk_remaining_ -= take;
        if (chunk_remaining_ > 0) {
          *consumed = pos;
          return Status::kNeedMore;
        }
        state_ = State::kDataCr;
        break;
      }
      case State::kDataCr:
        if (pos >= input.size()) {
          *consumed = pos;
          return Status::kNeedMore;
        }
        if (input[pos] != '\r') return Status::kBadSyntax;
        ++pos;
        state_ = State::kDataLf;
        break;
      case State::kDataLf:
        if (pos >= input.size()) {
          *consumed = pos;
          return Status::kNeedMore;
        }
        if (input[pos] != '\n') return Status::kBadSyntax;
        ++pos;
        state_ = State::kSizeLine;
        break;
      case State::kTrailer: {
        const size_t eol = input.find("\r\n", pos);
        if (eol == std::string_view::npos) {
          if (input.size() - pos + trailer_bytes_ > limits.max_header_bytes) {
            return Status::kBadTrailer;
          }
          *consumed = pos;
          return Status::kNeedMore;
        }
        const std::string_view line = input.substr(pos, eol - pos);
        trailer_bytes_ += line.size() + 2;
        if (trailer_bytes_ > limits.max_header_bytes) {
          return Status::kBadTrailer;
        }
        pos = eol + 2;
        if (line.empty()) {
          state_ = State::kDone;
          *consumed = pos;
          return Status::kDone;
        }
        // Trailer fields are validated, then discarded — nothing after the
        // body may change what the header block already decided.  They obey
        // the header field-line grammar: a pass-through relay forwards them
        // verbatim.
        FieldLine field;
        if (!parse_field_line(line, &field) ||
            forbidden_in_trailer(field.name)) {
          return Status::kBadTrailer;
        }
        break;
      }
      case State::kDone:
        *consumed = pos;
        return Status::kDone;
    }
  }
}

bool sanitize_path_into(std::string_view raw_path, std::string& out) {
  // Percent-decode into `out` (capacity recycles across calls).  An encoded
  // NUL (%00) is rejected here, before it could truncate a filesystem path.
  out.clear();
  for (size_t i = 0; i < raw_path.size(); ++i) {
    char c = raw_path[i];
    if (c == '%') {
      if (i + 2 >= raw_path.size()) return false;
      const int hi = hex_digit(raw_path[i + 1]);
      const int lo = hex_digit(raw_path[i + 2]);
      if (hi < 0 || lo < 0) return false;
      c = static_cast<char>(hi * 16 + lo);
      i += 2;
    }
    if (c == '\0') return false;
    out.push_back(c);
  }
  if (out.empty() || out.front() != '/') return false;

  // Normalize segments in place — the traversal check runs on the *decoded*
  // bytes, so %2e%2e%2f cannot sneak a ".." past it.  Two cursors over the
  // same buffer: out[0..w) is the normalized "/seg/seg" prefix, r scans the
  // decoded input; w <= r always, so the forward copies never overlap.
  const bool want_trailing = out.size() > 1 && out.back() == '/';
  const size_t n = out.size();
  size_t w = 0;
  size_t r = 1;
  while (r <= n) {
    size_t e = r;
    while (e < n && out[e] != '/') ++e;
    const size_t seg_len = e - r;
    if (seg_len == 0 || (seg_len == 1 && out[r] == '.')) {
      // "//" and "/./" collapse.
    } else if (seg_len == 2 && out[r] == '.' && out[r + 1] == '.') {
      if (w == 0) return false;  // escaping the document root
      do {
        --w;
      } while (w > 0 && out[w] != '/');
    } else {
      out[w++] = '/';
      for (size_t i = r; i < e; ++i) out[w++] = out[i];
    }
    r = e + 1;
  }
  if (w == 0) out[w++] = '/';
  // Preserve a trailing slash (directory request).
  if (want_trailing && out[w - 1] != '/') out[w++] = '/';
  out.resize(w);
  return true;
}

std::string sanitize_path(std::string_view raw_path) {
  std::string out;
  if (!sanitize_path_into(raw_path, out)) return {};
  return out;
}

ParseOutcome parse_request(cops::ByteBuffer& in, HttpRequest& out,
                           const ParseLimits& limits, ParseEvents& events) {
  out.reset();
  events = ParseEvents{};
  const auto view = in.view();
  HeadParts head;
  switch (locate_head(view, limits.max_header_bytes, &head)) {
    case HeadParseStatus::kNeedMore:
      return ParseOutcome::kIncomplete;
    case HeadParseStatus::kMalformed:
      return ParseOutcome::kMalformed;
    case HeadParseStatus::kOk:
      break;
  }
  RequestLine line;
  if (!parse_request_line(head.start_line, &line)) {
    return ParseOutcome::kMalformed;
  }
  out.target.assign(line.target);
  out.version_minor = line.http11 ? 1 : 0;

  // Consumes the head and reports a deterministic status reply.
  const auto reject = [&](StatusCode status) {
    in.consume(head.size);
    events.reject_status = status;
    return ParseOutcome::kReject;
  };

  FramingFields fields;
  const bool fields_ok =
      read_fields(head.fields, fields, [&out](const FieldLine& field) {
        const size_t existing = out.headers.find_index(field.name);
        if (existing == HeaderMap::npos) {
          out.headers.add(field.name, field.value);
        } else if (!cops::iequals(field.name, "content-length")) {
          // RFC 7230 §3.2.2 list-combine.  A repeated Content-Length is
          // either identical (it collapses) or rejected by the framing.
          out.headers.append_to_value(existing, field.value);
        }
      });
  if (!fields_ok) return reject(StatusCode::kBadRequest);
  const Framing framing = Framing::request(fields, line.http11);
  if (framing.status != StatusCode::kOk) return reject(framing.status);

  // Application decisions, after the shared grammar: a proxy forwards what
  // fails them.  Unknown methods and unsanitisable paths close silently.
  const auto method = parse_method(line.method);
  if (!method) return ParseOutcome::kMalformed;
  out.method = *method;
  const size_t q = line.target.find('?');
  if (q != std::string_view::npos) out.query.assign(line.target.substr(q + 1));
  if (!sanitize_path_into(line.target.substr(0, q), out.path)) {
    out.path.clear();
    if (out.target != "*") return ParseOutcome::kMalformed;
  }

  const std::string_view rest = view.substr(head.size);
  if (framing.delim == BodyDelim::kChunked) {
    // One-shot decode per call: on kNeedMore nothing is consumed and the
    // whole body re-decodes when more bytes arrive — that keeps the
    // kIncomplete-consumes-nothing contract (and re-parse purity) intact
    // at the cost of re-scanning, which the read loop amortises.
    ChunkedDecoder decoder;
    size_t body_consumed = 0;
    switch (decoder.feed(rest, &body_consumed, out.body, limits)) {
      case ChunkedDecoder::Status::kNeedMore:
        events.needs_continue = framing.expect_continue;
        return ParseOutcome::kIncomplete;
      case ChunkedDecoder::Status::kBadSyntax:
      case ChunkedDecoder::Status::kBadTrailer:
        return reject(StatusCode::kBadRequest);
      case ChunkedDecoder::Status::kTooLarge:
        return reject(StatusCode::kPayloadTooLarge);
      case ChunkedDecoder::Status::kDone:
        in.consume(head.size + body_consumed);
        return ParseOutcome::kComplete;
    }
    return ParseOutcome::kMalformed;  // unreachable
  }

  // Content-Length framing (kNone has a length of 0).
  if (framing.content_length > limits.max_body_bytes) {
    return reject(StatusCode::kPayloadTooLarge);
  }
  const auto body_len = static_cast<size_t>(framing.content_length);
  if (rest.size() < body_len) {
    events.needs_continue = framing.expect_continue;
    return ParseOutcome::kIncomplete;
  }
  out.body.assign(rest.data(), body_len);
  in.consume(head.size + body_len);
  return ParseOutcome::kComplete;
}

ParseOutcome parse_request(cops::ByteBuffer& in, HttpRequest& out,
                           const ParseLimits& limits,
                           StatusCode* reject_status) {
  ParseEvents events;
  const auto outcome = parse_request(in, out, limits, events);
  if (reject_status) *reject_status = events.reject_status;
  return outcome;
}

ParseOutcome parse_request(cops::ByteBuffer& in, HttpRequest& out,
                           const ParseLimits& limits) {
  ParseEvents events;
  const auto outcome = parse_request(in, out, limits, events);
  return outcome == ParseOutcome::kReject ? ParseOutcome::kMalformed : outcome;
}

}  // namespace cops::http
