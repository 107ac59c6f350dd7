#include "http/head_grammar.hpp"

#include <array>

#include "common/string_util.hpp"

namespace cops::http {

namespace {

// RFC 7230 tchar: what a method or a field name may contain.
constexpr std::array<bool, 256> make_token_table() {
  std::array<bool, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = true;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = true;
  for (const char c : std::string_view("!#$%&'*+-.^_`|~")) {
    table[static_cast<unsigned char>(c)] = true;
  }
  return table;
}
constexpr std::array<bool, 256> kTokenChar = make_token_table();

bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!kTokenChar[static_cast<unsigned char>(c)]) return false;
  }
  return true;
}

// Start lines and field values may hold HTAB, SP, VCHAR and obs-text —
// nothing else.  A bare CR or LF here would be forwarded verbatim by the
// proxy (response splitting / header injection).
bool is_field_text(std::string_view s) {
  // Non-short-circuit operators and no early exit, so the loop vectorizes.
  unsigned control = 0;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    control |= static_cast<unsigned>((u < 0x20) & (u != '\t')) |
               static_cast<unsigned>(u == 0x7f);
  }
  return control == 0;
}

std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Calls `fn` with each non-empty, OWS-trimmed element of a comma list.
template <typename Fn>
void for_each_element(std::string_view list, Fn&& fn) {
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view element = trim_ows(list.substr(pos, comma - pos));
    if (!element.empty()) fn(element);
    pos = comma + 1;
  }
}

// "HTTP/1.0" or "HTTP/1.1".
bool parse_version(std::string_view version, bool* http11) {
  if (version.size() != 8 || version.substr(0, 7) != "HTTP/1." ||
      (version[7] != '0' && version[7] != '1')) {
    return false;
  }
  *http11 = version[7] == '1';
  return true;
}

}  // namespace

HeadParseStatus locate_head(std::string_view bytes, size_t max_head_bytes,
                            HeadParts* out) {
  const size_t terminator = bytes.substr(0, max_head_bytes).find("\r\n\r\n");
  if (terminator == std::string_view::npos) {
    return bytes.size() >= max_head_bytes ? HeadParseStatus::kMalformed
                                          : HeadParseStatus::kNeedMore;
  }
  out->size = terminator + 4;
  const size_t line_end = bytes.find("\r\n");  // <= terminator
  out->start_line = bytes.substr(0, line_end);
  out->fields = line_end == terminator
                    ? std::string_view{}
                    : bytes.substr(line_end + 2, terminator - line_end - 2);
  return HeadParseStatus::kOk;
}

bool parse_request_line(std::string_view line, RequestLine* out) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1 ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return false;
  }
  out->method = line.substr(0, sp1);
  out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return is_token(out->method) && is_field_text(out->target) &&
         parse_version(line.substr(sp2 + 1), &out->http11);
}

bool parse_status_line(std::string_view line, StatusLine* out) {
  if (line.size() < 12 || line[8] != ' ' ||
      !parse_version(line.substr(0, 8), &out->http11)) {
    return false;
  }
  int status = 0;
  for (size_t i = 9; i < 12; ++i) {
    if (line[i] < '0' || line[i] > '9') return false;
    status = status * 10 + (line[i] - '0');
  }
  if (line.size() > 12 && line[12] != ' ') return false;  // "200OK"
  if (!is_field_text(line.substr(12))) return false;  // the reason phrase
  out->status = status;
  return true;
}

bool parse_field_line(std::string_view line, FieldLine* out) {
  // An obs-fold line opens with SP/HTAB, which no token holds, so it fails
  // the name check: a lenient parser would glue it onto the previous field
  // (a smuggling discrepancy), this one never merges it.
  const size_t colon = line.find(':');
  if (colon == std::string_view::npos) return false;
  out->name = line.substr(0, colon);
  out->value = trim_ows(line.substr(colon + 1));
  return is_token(out->name) && is_field_text(out->value);
}

bool parse_content_length(std::string_view digits, uint64_t* out) {
  if (digits.empty()) return false;
  constexpr uint64_t kMax = static_cast<uint64_t>(INT64_MAX);
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;  // reject, never wrap
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool list_has_token(std::string_view list, std::string_view token) {
  bool found = false;
  for_each_element(list, [&](std::string_view element) {
    found = found || cops::iequals(element, token);
  });
  return found;
}

void ConnectionTokens::note(std::string_view list) {
  for_each_element(list, [this](std::string_view element) {
    if (cops::iequals(element, "close")) close = true;
    if (cops::iequals(element, "keep-alive")) keep_alive = true;
  });
}

void FramingFields::note(const FieldLine& field) {
  const std::string_view name = field.name;
  const std::string_view value = field.value;
  if (cops::iequals(name, "content-length")) {
    if (!has_content_length_) {
      has_content_length_ = true;
      content_length_text_ = value;
      bad_content_length_ = !parse_content_length(value, &content_length_);
    } else if (value != content_length_text_) {
      bad_content_length_ = true;  // differing repeats: a smuggling vector
    }
  } else if (cops::iequals(name, "transfer-encoding")) {
    has_transfer_encoding_ = true;
    for_each_element(value, [this](std::string_view coding) {
      ++codings_;
      if (!cops::iequals(coding, "chunked")) only_chunked_ = false;
    });
  } else if (cops::iequals(name, "host")) {
    ++hosts_;
  } else if (cops::iequals(name, "expect")) {
    if (expects_++ == 0) expect_ = value;
  } else if (cops::iequals(name, "connection")) {
    connection_.note(value);
  }
}

Framing Framing::request(const FramingFields& f, bool http11) {
  Framing out;
  const auto reject = [&out](StatusCode status) {
    out.status = status;
    return out;
  };
  if (f.hosts_ > 1 || f.bad_content_length_) {
    return reject(StatusCode::kBadRequest);
  }
  if (f.has_transfer_encoding_) {
    // CL alongside TE is the canonical smuggling vector (§3.3.3), and a
    // 1.0 sender cannot have meant chunked framing.
    if (f.has_content_length_ || !http11) {
      return reject(StatusCode::kBadRequest);
    }
    // gzip, or chunked under another coding, stays a deterministic 501.
    if (!f.lone_chunked()) {
      return reject(StatusCode::kNotImplemented);
    }
    out.delim = BodyDelim::kChunked;
  } else if (f.content_length_ > 0) {
    out.delim = BodyDelim::kContentLength;
    out.content_length = f.content_length_;
  }
  // RFC 7231 §5.1.1: 100-continue is the only expectation defined.
  if (f.expects_ > 0) {
    if (f.expects_ != 1 || !cops::iequals(f.expect_, "100-continue")) {
      return reject(StatusCode::kExpectationFailed);
    }
    out.expect_continue = http11 && out.delim != BodyDelim::kNone;
  }
  out.keep_alive = persistent(http11, f.connection_);
  return out;
}

Framing Framing::response(const FramingFields& f, bool http11, int status,
                          bool head_request) {
  Framing out;
  if (f.bad_content_length_ ||
      (f.has_transfer_encoding_ &&
       (f.has_content_length_ || !http11 || !f.lone_chunked()))) {
    out.status = StatusCode::kBadGateway;
    return out;
  }
  out.content_length = f.content_length_;
  if (head_request || status / 100 == 1 || status == 204 || status == 304) {
    out.delim = BodyDelim::kNone;
  } else if (f.has_transfer_encoding_) {
    out.delim = BodyDelim::kChunked;
  } else if (f.has_content_length_) {
    out.delim = BodyDelim::kContentLength;
  } else {
    out.delim = BodyDelim::kToClose;
  }
  out.keep_alive = persistent(http11, f.connection_) &&
                   out.delim != BodyDelim::kToClose;
  return out;
}

}  // namespace cops::http
