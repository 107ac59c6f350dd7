#include "http/response_parser.hpp"

#include <limits>

#include "common/string_util.hpp"

namespace cops::http {

namespace {

bool read_fields_into(std::string_view block, FramingFields& framing,
                      MessageHead& out) {
  return read_fields(block, framing, [&out](const FieldLine& field) {
    HeaderField& stored = out.headers.emplace_back();
    stored.name.assign(field.name);
    stored.lname = cops::to_lower(field.name);
    stored.value.assign(field.value);
  });
}

}  // namespace

void MessageHead::reset() {
  headers.clear();
  http11 = true;
  delim = BodyDelim::kNone;
  content_length = 0;
  keep_alive = true;
  status = 0;
  status_line.clear();
  method.clear();
  target.clear();
  expect_continue = false;
}

HeadParseStatus parse_response_head(ByteBuffer& in, MessageHead& out,
                                    const ParseLimits& limits,
                                    bool head_request) {
  out.reset();
  HeadParts head;
  const auto located = locate_head(in.view(), limits.max_header_bytes, &head);
  if (located != HeadParseStatus::kOk) return located;
  StatusLine line;
  FramingFields fields;
  if (!parse_status_line(head.start_line, &line) ||
      !read_fields_into(head.fields, fields, out)) {
    return HeadParseStatus::kMalformed;
  }
  const Framing framing =
      Framing::response(fields, line.http11, line.status, head_request);
  if (framing.status != StatusCode::kOk) return HeadParseStatus::kMalformed;
  out.http11 = line.http11;
  out.status = line.status;
  out.status_line.assign(head.start_line);
  out.delim = framing.delim;
  out.content_length = framing.content_length;
  out.keep_alive = framing.keep_alive;
  in.consume(head.size);
  return HeadParseStatus::kOk;
}

HeadParseStatus parse_request_head(ByteBuffer& in, MessageHead& out,
                                   const ParseLimits& limits,
                                   StatusCode* reject_status) {
  out.reset();
  *reject_status = StatusCode::kBadRequest;
  HeadParts head;
  const auto located = locate_head(in.view(), limits.max_header_bytes, &head);
  if (located != HeadParseStatus::kOk) return located;
  RequestLine line;
  FramingFields fields;
  if (!parse_request_line(head.start_line, &line) ||
      !read_fields_into(head.fields, fields, out)) {
    return HeadParseStatus::kMalformed;
  }
  const Framing framing = Framing::request(fields, line.http11);
  if (framing.status != StatusCode::kOk) {
    *reject_status = framing.status;
    return HeadParseStatus::kMalformed;
  }
  out.http11 = line.http11;
  out.method.assign(line.method);
  out.target.assign(line.target);
  out.delim = framing.delim;
  out.content_length = framing.content_length;
  out.keep_alive = framing.keep_alive;
  out.expect_continue = framing.expect_continue;
  in.consume(head.size);
  return HeadParseStatus::kOk;
}

bool is_hop_by_hop(std::string_view lname, const MessageHead& head) {
  if (lname == "connection" || lname == "keep-alive" || lname == "te" ||
      lname == "trailer" || lname == "transfer-encoding" ||
      lname == "upgrade" || lname == "proxy-connection" ||
      lname == "proxy-authenticate" || lname == "proxy-authorization") {
    return true;
  }
  // Anything the Connection header names is hop-by-hop too.
  for (const auto& field : head.headers) {
    if (field.lname == "connection" && list_has_token(field.value, lname)) {
      return true;
    }
  }
  return false;
}

ChunkPassthrough::Status ChunkPassthrough::feed(std::string_view input,
                                                size_t* consumed) {
  // Lift the body-size policy out of the way: a relay enforces framing, not
  // a body budget — only hex chunk-size overflow may fire kTooLarge here.
  ParseLimits limits;
  limits.max_body_bytes = std::numeric_limits<size_t>::max() / 2;
  scratch_.clear();
  return decoder_.feed(input, consumed, scratch_, limits);
}

void ChunkPassthrough::reset() {
  decoder_.reset();
  scratch_.clear();
}

}  // namespace cops::http
