#include "http/http_server.hpp"

#include <filesystem>

#include "common/clock.hpp"
#include "http/mime.hpp"
#include "http/http_date.hpp"

namespace cops::http {

nserver::DecodeResult HttpAppHooks::decode(nserver::RequestContext& ctx,
                                           ByteBuffer& in) {
  // Parse into the connection's scratch request and hand Handle a pointer:
  // zero steady-state allocations per keep-alive request.
  auto& any_state = ctx.app_state();
  if (!any_state) any_state = std::make_shared<HttpConnState>();
  auto* state = static_cast<HttpConnState*>(any_state.get());
  HttpRequest* request = &state->scratch;
  ParseEvents events;
  switch (parse_request(in, *request, ParseLimits{}, events)) {
    case ParseOutcome::kIncomplete:
      // RFC 7231 §5.1.1: the header block said "Expect: 100-continue" and
      // the body is still in flight — answer with the interim status (once)
      // so a conforming client stops holding the body back.
      if (events.needs_continue && !state->continue_sent) {
        state->continue_sent = true;
        ctx.send("HTTP/1.1 100 Continue\r\n\r\n");
      }
      return nserver::DecodeResult::need_more();
    case ParseOutcome::kMalformed:
      return nserver::DecodeResult::error();
    case ParseOutcome::kReject:
      // Deterministic protocol rejection (a field line outside the
      // grammar, a second Host, bad Content-Length, oversize body, CL+TE
      // conflict, non-chunked Transfer-Encoding, malformed chunk framing,
      // unsupported Expect) — answered with a status reply and a close so
      // no smuggled follow-up bytes are ever interpreted.
      return nserver::DecodeResult::reject(
          make_error_response(events.reject_status, /*keep_alive=*/false));
    case ParseOutcome::kComplete:
      state->continue_sent = false;
      break;
  }
  if (config_.decode_delay.count() > 0) {
    spend(config_.decode_delay);
  }
  int priority = 0;
  if (config_.priority_classifier) {
    priority = config_.priority_classifier(*request);
  }
  return nserver::DecodeResult::request_ready(std::any(request), priority);
}

void HttpAppHooks::reply_error(nserver::RequestContext& ctx, StatusCode status,
                               bool keep_alive) {
  if (!keep_alive) ctx.close_after_reply();
  ctx.reply(make_error_response(status, keep_alive));
}

void HttpAppHooks::handle(nserver::RequestContext& ctx, std::any request) {
  // Decode passes a pointer to the connection's scratch request.
  const HttpRequest& req = *std::any_cast<HttpRequest*>(request);
  const bool keep_alive = req.keep_alive();

  // O9 shed tier: while overloaded, answer with an explicit 503 instead of
  // queueing the work — a fast, countable overload signal for upstream load
  // balancers and retrying clients.
  if (ctx.should_shed()) {
    ctx.note_shed();
    auto resp = make_error_response(StatusCode::kServiceUnavailable,
                                    keep_alive);
    resp.set_header("Retry-After",
                    std::to_string(ctx.shed_retry_after().count()));
    if (!keep_alive) ctx.close_after_reply();
    ctx.reply(std::move(resp));
    return;
  }

  // Modeled Handle cost — after the shed check on purpose: admitted
  // requests pay it, shed ones don't, so shedding actually unloads the
  // bottleneck in both real and simulated overload experiments.
  if (config_.handle_delay.count() > 0) {
    spend(config_.handle_delay);
  }

  if (req.method != Method::kGet && req.method != Method::kHead) {
    reply_error(ctx, StatusCode::kMethodNotAllowed, keep_alive);
    return;
  }
  if (req.path.empty()) {
    reply_error(ctx, StatusCode::kForbidden, keep_alive);
    return;
  }
  std::string path = req.path;
  if (config_.auto_index && maybe_serve_directory(ctx, path, keep_alive)) {
    return;
  }
  if (path.back() == '/') path += config_.index_file;
  const std::string fs_path = config_.doc_root + path;

  const bool head_only = req.method == Method::kHead;
  // Conditional GET: a valid If-Modified-Since newer than the file yields
  // 304 Not Modified (no body) — the cache-friendly path browsers use.
  int64_t if_modified_since = -1;
  if (auto header = req.header("if-modified-since")) {
    if_modified_since = parse_http_date(std::string(*header));
  }
  ctx.fetch_file(
      fs_path, [this, keep_alive, head_only, path,
                if_modified_since](nserver::RequestContext& ctx,
                                   Result<nserver::FileDataPtr> file) {
        if (!file.is_ok()) {
          reply_error(ctx, StatusCode::kNotFound, keep_alive);
          return;
        }
        if (if_modified_since >= 0 &&
            file.value()->mtime_seconds <= if_modified_since) {
          HttpResponse not_modified;
          not_modified.status = StatusCode::kNotModified;
          not_modified.set_header("Last-Modified",
                                  format_http_date(
                                      file.value()->mtime_seconds));
          not_modified.set_header("Connection",
                                  keep_alive ? "keep-alive" : "close");
          if (!keep_alive) ctx.close_after_reply();
          ctx.reply(std::move(not_modified));
          return;
        }
        HttpResponse resp;
        resp.status = StatusCode::kOk;
        resp.file = file.value();
        resp.head_only = head_only;
        resp.headers.reserve(4);
        resp.set_header("Content-Type", std::string(mime_type_for(path)));
        resp.set_header("Content-Length",
                        std::to_string(file.value()->size()));
        resp.set_header("Last-Modified",
                        format_http_date(file.value()->mtime_seconds));
        resp.set_header("Connection", keep_alive ? "keep-alive" : "close");
        if (!keep_alive) ctx.close_after_reply();
        ctx.reply(std::move(resp));
      });
}

bool HttpAppHooks::maybe_serve_directory(nserver::RequestContext& ctx,
                                         const std::string& path,
                                         bool keep_alive) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string fs_path = config_.doc_root + path;
  if (!fs::is_directory(fs_path, ec) || ec) return false;

  // Directory without trailing slash: redirect so relative links resolve.
  if (path.back() != '/') {
    HttpResponse redirect;
    redirect.status = StatusCode::kMovedPermanently;
    redirect.set_header("Location", path + "/");
    redirect.set_header("Content-Type", "text/html");
    redirect.set_header("Connection", keep_alive ? "keep-alive" : "close");
    redirect.body = "<html><body>moved <a href=\"" + path + "/\">here</a>"
                    "</body></html>\n";
    if (!keep_alive) ctx.close_after_reply();
    ctx.reply(std::move(redirect));
    return true;
  }
  // With an index file present, fall through to normal file serving.
  if (fs::exists(fs_path + config_.index_file, ec) && !ec) return false;

  std::string body = "<html><head><title>Index of " + path +
                     "</title></head><body><h1>Index of " + path +
                     "</h1><ul>\n";
  for (auto it = fs::directory_iterator(fs_path, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const bool is_dir = it->is_directory(ec);
    body += "<li><a href=\"" + name + (is_dir ? "/" : "") + "\">" + name +
            (is_dir ? "/" : "") + "</a></li>\n";
  }
  body += "</ul></body></html>\n";
  HttpResponse listing;
  listing.status = StatusCode::kOk;
  listing.body = std::move(body);
  listing.set_header("Content-Type", "text/html");
  listing.set_header("Connection", keep_alive ? "keep-alive" : "close");
  if (!keep_alive) ctx.close_after_reply();
  ctx.reply(std::move(listing));
  return true;
}

EncodedReply HttpAppHooks::encode_reply(nserver::RequestContext& /*ctx*/,
                                        std::any response) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  return encode_segments(std::any_cast<const HttpResponse&>(response));
}

nserver::ServerOptions CopsHttpServer::default_options() {
  nserver::ServerOptions options;
  options.dispatcher_threads = 1;                                  // O1
  options.separate_processor_pool = true;                          // O2
  options.processor_threads = 2;
  options.encode_decode = true;                                    // O3
  options.completion = nserver::CompletionMode::kAsynchronous;     // O4
  options.thread_allocation = nserver::ThreadAllocation::kStatic;  // O5
  options.cache_policy = nserver::CachePolicyKind::kLru;           // O6
  options.cache_capacity_bytes = 20 * 1024 * 1024;
  options.shutdown_long_idle = false;                              // O7
  options.event_scheduling = false;                                // O8
  options.overload_control = false;                                // O9
  options.mode = nserver::ServerMode::kProduction;                 // O10
  options.profiling = false;                                       // O11
  options.logging = false;                                         // O12
  return options;
}

CopsHttpServer::CopsHttpServer(nserver::ServerOptions options,
                               HttpServerConfig config)
    : hooks_(std::make_shared<HttpAppHooks>(std::move(config))),
      server_(std::move(options), hooks_) {}

}  // namespace cops::http
