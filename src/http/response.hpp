// HTTP response builder (the Encode Reply step's output format).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/send_queue.hpp"
#include "http/status_code.hpp"
#include "nserver/file_io_service.hpp"

namespace cops::http {

struct HttpResponse {
  StatusCode status = StatusCode::kOk;
  // Flat vector instead of std::map: a response carries a handful of headers,
  // and the send path serializes every one — insertion order with linear
  // replace-or-append beats tree allocation per header.
  std::vector<std::pair<std::string, std::string>> headers;
  // Body either inline or as a shared file snapshot (zero-copy from cache).
  std::string body;
  cops::nserver::FileDataPtr file;
  bool head_only = false;  // HEAD: emit headers, suppress body bytes

  void set_header(std::string name, std::string value);
  [[nodiscard]] const std::string* find_header(std::string_view name) const;
  [[nodiscard]] size_t body_size() const {
    return file ? file->size() : body.size();
  }

  // Serializes status line + headers + the blank separator line.  Adds
  // Content-Length, Server, and Date headers if absent.  This is the owned
  // prefix of a segmented reply; the body rides as a refcounted slice.
  [[nodiscard]] std::string serialize_headers() const;

  // Serializes status line + headers + body into one flat buffer, reserving
  // the exact size up front.  The reference encode_segments() must match
  // byte for byte (for a descriptor-backed file, with the body read from
  // the descriptor).
  [[nodiscard]] std::string serialize() const;
};

// The reply as send segments: one flat buffer for inline bodies, HEAD and
// empty files; otherwise an owned header block plus the body as a
// refcounted cache slice (memory-backed file) or a sendfile range
// (descriptor-backed file).
[[nodiscard]] EncodedReply encode_segments(const HttpResponse& resp);

// Builds a simple HTML error page response.
[[nodiscard]] HttpResponse make_error_response(StatusCode status,
                                               bool keep_alive);

}  // namespace cops::http
