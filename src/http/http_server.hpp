// COPS-HTTP — the paper's static-content Web server, expressed as the three
// application-dependent hook methods on top of the generated N-Server
// framework (paper, Section V.B).
//
// Everything HTTP-specific lives here and in the protocol library
// (request_parser / response / mime / http_date); everything concurrent is
// the framework's.  The paper's option settings for COPS-HTTP (Table 1):
// one dispatcher, separate pool, encode/decode on, asynchronous completions,
// static thread allocation, LRU file cache.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "http/request.hpp"
#include "http/request_parser.hpp"
#include "http/response.hpp"
#include "nserver/server.hpp"

namespace cops::http {

struct HttpServerConfig {
  std::string doc_root = ".";
  std::string index_file = "index.html";

  // Generate an HTML listing for directories without an index file, and
  // redirect (301) directory paths lacking the trailing slash.
  bool auto_index = false;

  // Event-scheduling priority hook (option O8) — the paper's ISP experiment
  // classifies requests into corporate-portal vs homepage levels with a
  // 13-line hook.  Return the priority level (0 = highest).
  std::function<int(const HttpRequest&)> priority_classifier;

  // Artificial CPU cost added to the Decode step.  The paper's overload
  // experiment (Fig. 6) "force[s] each thread to sleep for 50 milliseconds
  // when decoding an HTTP request" to make the CPU the bottleneck.
  // Sim-aware (cops::spend): under simnet the cost advances the virtual
  // clock instead of sleeping, so overload scenarios replay deterministically.
  std::chrono::milliseconds decode_delay{0};

  // Artificial CPU cost added to the Handle step, applied *after* the O9
  // shed check — so a shed 503 really is cheap and shedding genuinely
  // relieves the modeled bottleneck.  Sim-aware like decode_delay; this is
  // the knob the adaptive-overload spike scenarios turn.
  std::chrono::milliseconds handle_delay{0};
};

// Per-connection session state (hung off RequestContext::app_state).  The
// Decode hook parses into `scratch` and hands Handle a pointer to it — the
// pipeline token invariant guarantees exactly one request in flight per
// connection, so the scratch object stays valid until the next decode,
// which cannot start before Handle resolves.  Across keep-alive requests
// every string inside keeps its capacity: steady-state decoding allocates
// nothing.
struct HttpConnState {
  HttpRequest scratch;
  // Latch: an interim "100 Continue" has been emitted for the request
  // currently being decoded (RFC 7231 §5.1.1).  The decoder fires
  // needs_continue on every incomplete parse attempt while the body drips
  // in; this keeps the interim reply to exactly one.  Reset when a request
  // completes.
  bool continue_sent = false;
};

class HttpAppHooks : public nserver::AppHooks {
 public:
  explicit HttpAppHooks(HttpServerConfig config)
      : config_(std::move(config)) {}

  nserver::DecodeResult decode(nserver::RequestContext& ctx,
                               ByteBuffer& in) override;
  void handle(nserver::RequestContext& ctx, std::any request) override;
  // Encode Reply: encode_segments() of the handled HttpResponse.
  EncodedReply encode_reply(nserver::RequestContext& ctx,
                            std::any response) override;

  [[nodiscard]] uint64_t responses_sent() const { return responses_.load(); }
  [[nodiscard]] const HttpServerConfig& config() const { return config_; }

 private:
  void reply_error(nserver::RequestContext& ctx, StatusCode status,
                   bool keep_alive);
  // auto_index: 301 for slash-less directory paths, generated listing for
  // directories without an index file.  Returns true when it handled the
  // request.
  bool maybe_serve_directory(nserver::RequestContext& ctx,
                             const std::string& path, bool keep_alive);

  HttpServerConfig config_;
  std::atomic<uint64_t> responses_{0};
};

// Bundles ServerOptions + HTTP hooks into a runnable web server.
class CopsHttpServer {
 public:
  CopsHttpServer(nserver::ServerOptions options, HttpServerConfig config);

  Status start() { return server_.start(); }
  void stop() { server_.stop(); }

  [[nodiscard]] uint16_t port() const { return server_.port(); }
  // Admin/metrics endpoint port (O11+); 0 unless stats_export is enabled.
  [[nodiscard]] uint16_t admin_port() const { return server_.admin_port(); }
  [[nodiscard]] nserver::Server& server() { return server_; }
  [[nodiscard]] HttpAppHooks& hooks() { return *hooks_; }

  // The paper's default COPS-HTTP option settings (Table 1, last column).
  static nserver::ServerOptions default_options();

 private:
  std::shared_ptr<HttpAppHooks> hooks_;
  nserver::Server server_;
};

}  // namespace cops::http
