#include "http/response.hpp"

#include <string_view>

#include "http/http_date.hpp"

namespace cops::http {

namespace {
// Case-sensitive compare is fine here: the server itself is the only writer
// of response headers and uses canonical capitalisation throughout.
bool header_eq(std::string_view a, std::string_view b) { return a == b; }

size_t digits_of(size_t v) {
  size_t d = 1;
  while (v >= 10) {
    v /= 10;
    ++d;
  }
  return d;
}
}  // namespace

void HttpResponse::set_header(std::string name, std::string value) {
  for (auto& [existing, val] : headers) {
    if (header_eq(existing, name)) {
      val = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(name), std::move(value));
}

const std::string* HttpResponse::find_header(std::string_view name) const {
  for (const auto& [existing, value] : headers) {
    if (header_eq(existing, name)) return &value;
  }
  return nullptr;
}

std::string HttpResponse::serialize_headers() const {
  const std::string status_code = std::to_string(static_cast<int>(status));
  const std::string_view reason = reason_phrase(status);
  const bool need_server = find_header("Server") == nullptr;
  const bool need_date = find_header("Date") == nullptr;
  const bool need_length = find_header("Content-Length") == nullptr;
  const size_t length = body_size();

  // Exact byte count: the serialized block must never reallocate.
  size_t total = 9 /* "HTTP/1.1 " */ + status_code.size() + 1 + reason.size() +
                 2 /* CRLF */ + 2 /* final CRLF */;
  if (need_server) total += sizeof("Server: COPS-HTTP/1.0\r\n") - 1;
  if (need_date) total += 6 /* "Date: " */ + kHttpDateLength + 2;
  if (need_length) total += 16 /* "Content-Length: " */ + digits_of(length) + 2;
  for (const auto& [name, value] : headers) {
    total += name.size() + 2 + value.size() + 2;
  }

  std::string out;
  out.reserve(total);
  out += "HTTP/1.1 ";
  out += status_code;
  out += ' ';
  out += reason;
  out += "\r\n";
  if (need_server) out += "Server: COPS-HTTP/1.0\r\n";
  if (need_date) {
    out += "Date: ";
    out += now_http_date();
    out += "\r\n";
  }
  if (need_length) {
    out += "Content-Length: ";
    out += std::to_string(length);
    out += "\r\n";
  }
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string HttpResponse::serialize() const {
  std::string out = serialize_headers();
  if (head_only) return out;
  const std::string_view bytes = file ? std::string_view(file->bytes) : body;
  out.reserve(out.size() + bytes.size());
  out += bytes;
  return out;
}

EncodedReply encode_segments(const HttpResponse& resp) {
  // Inline bodies (errors, listings, 304s) and HEAD replies are small; one
  // flat buffer is the right shape for them.
  if (resp.head_only || !resp.file || resp.file->size() == 0) {
    return EncodedReply::from_string(resp.serialize());
  }
  const auto& file = resp.file;
  EncodedReply reply;
  reply.segments.reserve(2);  // headers + body
  reply.add_owned(resp.serialize_headers());
  if (file->fd >= 0) {
    // Large uncached file opened for sendfile: the kernel moves the bytes.
    reply.add_file(file, file->fd, 0, file->fd_size);
  } else {
    // Cached file: gather the cache's bytes directly — no body copy.  The
    // FileDataPtr keepalive pins the snapshot past cache eviction.
    reply.add_shared(file, file->bytes.data(), file->bytes.size());
  }
  return reply;
}

HttpResponse make_error_response(StatusCode status, bool keep_alive) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::string("<html><head><title>") +
              std::to_string(static_cast<int>(status)) + " " +
              reason_phrase(status) + "</title></head><body><h1>" +
              std::to_string(static_cast<int>(status)) + " " +
              reason_phrase(status) + "</h1></body></html>\n";
  resp.set_header("Content-Type", "text/html");
  resp.set_header("Connection", keep_alive ? "keep-alive" : "close");
  return resp;
}

}  // namespace cops::http
