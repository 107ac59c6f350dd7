// Shared helpers for the proxy test layer: a scriptable HTTP/1.1 origin
// server that the streaming proxy (src/proxy) is pointed at.
//
// CopsHttpServer is the right origin when the scenario is "serve a file";
// the proxy's protocol-model tests need origins that misbehave on purpose —
// echo the request head back (so hop-by-hop stripping is observable), go
// silent after accepting (504 path), reply with garbage (502 + poisoning),
// or delay the body (drain-during-in-flight).  ScriptedBackend is that
// origin: one Reactor, a real parse of each request (head + CL/chunked
// body via the shared protocol library), and a responder callback that
// decides the reply bytes.  It runs identically over real sockets and under
// an installed SimEngine (where its timers ride the virtual clock).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/byte_buffer.hpp"
#include "common/clock.hpp"
#include "http/request_parser.hpp"
#include "http/response_parser.hpp"
#include "net/acceptor.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "tests/test_util.hpp"

namespace cops::test {

// At namespace scope (not nested) so it can be a defaulted constructor
// argument: a nested struct's member initializers are incomplete until the
// end of the enclosing class.
struct ScriptedBackendOptions {
  // When < SIZE_MAX, only this many response bytes go out immediately; the
  // remainder follows after `rest_delay` on the backend's reactor clock
  // (virtual under simnet) — an origin that stalls mid-body.
  size_t immediate_bytes = SIZE_MAX;
  Duration rest_delay = std::chrono::milliseconds(200);
  bool close_after_response = false;
};

class ScriptedBackend {
 public:
  struct Request {
    http::MessageHead head;
    std::string raw_head;  // verbatim header block incl. final CRLFCRLF
    std::string body;      // decoded (chunked bodies arrive de-framed)
  };

  // Full response bytes for one request.  An empty return means "never
  // respond" (black hole): the connection stays open and silent.
  using Responder = std::function<std::string(const Request&)>;

  using Options = ScriptedBackendOptions;

  explicit ScriptedBackend(uint16_t port, Responder responder,
                           Options options = {})
      : responder_(std::move(responder)), options_(options) {
    acceptor_ = std::make_unique<net::Acceptor>(
        reactor_, [this](net::TcpSocket socket) { on_accept(std::move(socket)); });
    auto bound = acceptor_->open("127.0.0.1", port, 64);
    ok_ = bound.is_ok();
    if (ok_) {
      port_ = bound.value();
      reactor_.start_thread("scripted-backend");
    }
  }

  ~ScriptedBackend() { stop(); }
  ScriptedBackend(const ScriptedBackend&) = delete;
  ScriptedBackend& operator=(const ScriptedBackend&) = delete;

  // Idempotent: once the loop has stopped, the close runs inline.
  void stop() {
    reactor_.run_sync([this] {
      acceptor_->close();
      for (auto& [id, conn] : conns_) {
        if (conn->sock.valid()) {
          reactor_.deregister(conn->sock.fd());
          conn->sock.close();
        }
      }
      conns_.clear();
    });
    reactor_.stop();
    reactor_.join();
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] uint64_t accepted() const { return accepted_.load(); }
  [[nodiscard]] uint64_t requests_seen() const { return requests_.load(); }

 private:
  struct Conn : net::EventHandler {
    Conn(ScriptedBackend& owner, uint64_t id, net::TcpSocket s)
        : backend(owner), conn_id(id), sock(std::move(s)) {}

    void handle_event(int /*fd*/, uint32_t readiness) override {
      if ((readiness & net::kErrored) != 0) {
        backend.drop(conn_id);
        return;
      }
      if ((readiness & net::kWritable) != 0 && !backend.flush(*this)) return;
      if ((readiness & net::kReadable) != 0) backend.on_readable(*this);
    }

    ScriptedBackend& backend;
    uint64_t conn_id;
    net::TcpSocket sock;
    ByteBuffer in;
    Request request;
    bool head_done = false;
    uint64_t cl_remaining = 0;
    http::ChunkedDecoder chunker;
    std::string out;
    bool close_when_drained = false;
  };

  void on_accept(net::TcpSocket socket) {
    accepted_.fetch_add(1);
    const uint64_t id = next_id_++;
    auto conn = std::make_unique<Conn>(*this, id, std::move(socket));
    const int fd = conn->sock.fd();
    Conn* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    reactor_.register_handler(fd, raw, net::kReadable);
  }

  void on_readable(Conn& conn) {
    auto read = conn.sock.read(conn.in);
    if (!read.is_ok()) {
      if (read.status().code() != StatusCode::kWouldBlock) drop(conn.conn_id);
      return;
    }
    // Parse as many complete requests as the buffer holds (the proxy may
    // pipeline the next request onto a kept-alive connection).
    while (true) {
      if (!conn.head_done) {
        const size_t head_end = conn.in.find("\r\n\r\n");
        if (head_end == std::string::npos) return;
        conn.request.raw_head =
            std::string(conn.in.view().substr(0, head_end + 4));
        http::StatusCode reject = http::StatusCode::kBadRequest;
        const auto parsed = http::parse_request_head(
            conn.in, conn.request.head, limits_, &reject);
        if (parsed != http::HeadParseStatus::kOk) {
          drop(conn.conn_id);
          return;
        }
        conn.head_done = true;
        conn.cl_remaining = conn.request.head.content_length;
        conn.chunker.reset();
        conn.request.body.clear();
      }
      switch (conn.request.head.delim) {
        case http::BodyDelim::kContentLength: {
          const auto view = conn.in.view();
          const size_t take =
              std::min<uint64_t>(conn.cl_remaining, view.size());
          conn.request.body.append(view.substr(0, take));
          conn.in.consume(take);
          conn.cl_remaining -= take;
          if (conn.cl_remaining > 0) return;
          break;
        }
        case http::BodyDelim::kChunked: {
          size_t consumed = 0;
          const auto status = conn.chunker.feed(conn.in.view(), &consumed,
                                                conn.request.body, limits_);
          conn.in.consume(consumed);
          if (status == http::ChunkedDecoder::Status::kNeedMore) return;
          if (status != http::ChunkedDecoder::Status::kDone) {
            drop(conn.conn_id);
            return;
          }
          break;
        }
        default:
          break;
      }
      requests_.fetch_add(1);
      const std::string reply = responder_(conn.request);
      conn.head_done = false;
      if (reply.empty()) continue;  // black hole: swallow and stay silent
      if (options_.immediate_bytes < reply.size()) {
        conn.out += reply.substr(0, options_.immediate_bytes);
        const std::string rest = reply.substr(options_.immediate_bytes);
        const uint64_t id = conn.conn_id;
        reactor_.run_after(options_.rest_delay, [this, id, rest] {
          auto it = conns_.find(id);
          if (it == conns_.end()) return;
          it->second->out += rest;
          if (options_.close_after_response) {
            it->second->close_when_drained = true;
          }
          if (!flush(*it->second)) return;
          update_interest(*it->second);
        });
      } else {
        conn.out += reply;
        if (options_.close_after_response) conn.close_when_drained = true;
      }
      if (!flush(conn)) return;
    }
  }

  // Returns false when the connection was dropped.
  bool flush(Conn& conn) {
    while (!conn.out.empty()) {
      auto sent = conn.sock.write(std::string_view(conn.out));
      if (!sent.is_ok()) {
        if (sent.status().code() == StatusCode::kWouldBlock) break;
        drop(conn.conn_id);
        return false;
      }
      conn.out.erase(0, sent.value());
    }
    if (conn.out.empty() && conn.close_when_drained) {
      drop(conn.conn_id);
      return false;
    }
    update_interest(conn);
    return true;
  }

  void update_interest(Conn& conn) {
    uint32_t interest = net::kReadable;
    if (!conn.out.empty()) interest |= net::kWritable;
    reactor_.update_interest(conn.sock.fd(), interest);
  }

  void drop(uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    if (it->second->sock.valid()) {
      reactor_.deregister(it->second->sock.fd());
      it->second->sock.close();
    }
    // Deferred erase: drop() may be reached from inside the connection's
    // own handle_event frame.
    reactor_.post([this, id] { conns_.erase(id); });
  }

  Responder responder_;
  Options options_;
  http::ParseLimits limits_;
  net::Reactor reactor_;
  std::unique_ptr<net::Acceptor> acceptor_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = 1;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> requests_{0};
  uint16_t port_ = 0;
  bool ok_ = false;
};

// Canned origin replies.
inline std::string simple_response(const std::string& body,
                                   bool keep_alive = true,
                                   const std::string& extra_headers = "") {
  return "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\n" + extra_headers +
         (keep_alive ? "" : "Connection: close\r\n") + "\r\n" + body;
}

inline std::string chunked_response(const std::string& body,
                                    size_t chunk_bytes = 7) {
  std::string reply = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  for (size_t at = 0; at < body.size(); at += chunk_bytes) {
    const std::string chunk = body.substr(at, chunk_bytes);
    char size_line[16];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", chunk.size());
    reply += size_line;
    reply += chunk;
    reply += "\r\n";
  }
  reply += "0\r\n\r\n";
  return reply;
}

}  // namespace cops::test
