// Parsed HTTP request.
//
// Built for the allocation-free request path: a connection reuses one
// HttpRequest as decode scratch across keep-alive requests, so every field
// recycles its capacity via reset() instead of being re-allocated.  Headers
// live in a HeaderMap — a flat entry table over one contiguous storage
// arena — rather than a node-per-header std::map, so parsing a request
// performs no per-header allocations once the arena has warmed up.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/method.hpp"

namespace cops::http {

// Flat header collection.  Names are lower-cased at insertion; lookup is by
// exact (already-lowercase) or mixed-case name.  Iteration yields headers in
// wire order as {name, value} views into the map's own storage — the views
// stay valid until the next add()/append_to_value()/reset().
class HeaderMap {
 public:
  struct Header {
    std::string_view name;
    std::string_view value;
  };

  // Appends a header; `name` is lower-cased into storage.
  void add(std::string_view name, std::string_view value);
  // RFC 7230 §3.2.2 list-combine: entry i's value becomes "old, more".
  void append_to_value(size_t i, std::string_view more);

  static constexpr size_t npos = static_cast<size_t>(-1);
  // Case-insensitive lookup of the first matching entry.
  [[nodiscard]] size_t find_index(std::string_view name) const;
  [[nodiscard]] std::optional<std::string_view> get(std::string_view name) const;
  [[nodiscard]] Header at(size_t i) const;

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  // Forgets every header but keeps the arena capacity (the zero-allocation
  // steady state relies on this).
  void reset() {
    entries_.clear();
    storage_.clear();
  }

  class const_iterator {
   public:
    const_iterator(const HeaderMap* map, size_t i) : map_(map), i_(i) {}
    Header operator*() const { return map_->at(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const HeaderMap* map_;
    size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, entries_.size()}; }

  // Wire-order equality of (name, value) sequences.
  bool operator==(const HeaderMap& other) const;
  bool operator!=(const HeaderMap& other) const { return !(*this == other); }

 private:
  struct Entry {
    uint32_t name_off;
    uint32_t name_len;
    uint32_t value_off;
    uint32_t value_len;
  };

  std::vector<Entry> entries_;
  std::string storage_;
};

struct HttpRequest {
  Method method = Method::kGet;
  std::string target;       // raw request-target, e.g. "/dir0/file3.html?x=1"
  std::string path;         // decoded, query stripped
  std::string query;        // after '?', raw
  int version_major = 1;
  int version_minor = 1;
  // Header names lower-cased at parse time.
  HeaderMap headers;
  std::string body;

  // Clears every field while keeping string/arena capacity, so a reused
  // scratch request parses the next one without heap traffic.
  void reset();

  [[nodiscard]] bool has_header(std::string_view name) const {
    return headers.find_index(name) != HeaderMap::npos;
  }
  // Borrowed view of the header's value; nullopt when absent.
  [[nodiscard]] std::optional<std::string_view> header(
      std::string_view name) const {
    return headers.get(name);
  }
  [[nodiscard]] std::string header_or(std::string_view name,
                                      std::string fallback = {}) const {
    auto value = headers.get(name);
    return value ? std::string(*value) : std::move(fallback);
  }
  // HTTP/1.1 defaults to persistent connections; a "close" token in the
  // Connection list (or HTTP/1.0 without a "keep-alive" token) ends the
  // connection after the reply.  Token comparison is case-insensitive and
  // list-aware: "Connection: foo, close" closes, "Connection: disclosed"
  // does not.
  [[nodiscard]] bool keep_alive() const;
};

}  // namespace cops::http
